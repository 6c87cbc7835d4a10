"""The DPI classification engine.

Matches :class:`~repro.network.gtp.FlowDescriptor` features against the
fingerprint database using a cascade of techniques, in decreasing order
of reliability — mirroring the "multiple fingerprinting techniques, each
tailored to a specific traffic type" of §2:

1. **SNI** — TLS server-name suffix match;
2. **HOST** — clear-text HTTP host suffix match;
3. **PAYLOAD** — stateful payload hints (QUIC tags, proprietary
   protocols);
4. **PORT** — well-known (port, protocol) signatures.

Flows matching nothing stay unclassified; with the default emitter
settings the engine classifies ≈88 % of the volume, the paper's rate.

Suffix matching is served by a reversed-label dict index
(:class:`_SuffixIndex`): a name is matched by walking its label-boundary
suffixes from longest to shortest and probing a dict at each step, so a
lookup costs O(#labels of the name) instead of O(#registered patterns).
The pre-index linear scan is retained behind ``indexed=False`` as the
reference implementation for equivalence testing and benchmarking.

Batches arrive as int64 feature codes against the database's
:class:`~repro.network.gtp.FeatureCodebook`, one code per distinct
feature tuple ``(sni, host, payload_hint, server_port, protocol)``.
:meth:`DpiEngine.classify_batch` runs the match cascade once per
distinct code on its decoded strings, then keeps only the integer
outcome, in sorted arrays that grow with the distinct codes seen and
are bounded by the codebook's feature space.  A code resolved once is
never decoded again; codes of a batch's overflow table (features the
codebook cannot encode) are batch-local and resolved per batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import Features, FlowDescriptor


class Technique(enum.Enum):
    """Classification techniques, in match-priority order."""

    SNI = "sni"
    HOST = "host"
    PAYLOAD = "payload"
    PORT = "port"


_TECHNIQUES = tuple(Technique)


@dataclass
class ClassificationReport:
    """Aggregate accounting of a classification run: a build's byte ledger.

    Byte totals are integer sums, exact in any flow, batch or merge order.
    """

    flows_total: int = 0
    flows_classified: int = 0
    bytes_total: int = 0
    bytes_classified: int = 0
    by_technique: Dict[Technique, int] = field(
        default_factory=lambda: {t: 0 for t in Technique}
    )

    @property
    def flow_coverage(self) -> float:
        """Fraction of flows attributed to a service."""
        return self.flows_classified / self.flows_total if self.flows_total else 0.0

    @property
    def byte_coverage(self) -> float:
        """Fraction of traffic volume attributed to a service (the 88 %)."""
        return self.bytes_classified / self.bytes_total if self.bytes_total else 0.0

    def record(self, technique: Optional[Technique], volume_bytes: int) -> None:
        """Account one flow's outcome."""
        self.flows_total += 1
        self.bytes_total += volume_bytes
        if technique is not None:
            self.flows_classified += 1
            self.bytes_classified += volume_bytes
            self.by_technique[technique] += 1

    def merge(self, other: "ClassificationReport") -> "ClassificationReport":
        """Fold another report (e.g. one worker shard's) into this one."""
        self.flows_total += other.flows_total
        self.flows_classified += other.flows_classified
        self.bytes_total += other.bytes_total
        self.bytes_classified += other.bytes_classified
        for technique, count in other.by_technique.items():
            self.by_technique[technique] += count
        return self


class _SuffixIndex:
    """Exact-probe index over domain-suffix patterns.

    Plain patterns match a name when the name equals the pattern or ends
    with ``"." + pattern``; patterns ending with ``.`` (e.g. ``"imap."``)
    match name *prefixes* instead (protocol-conventional hostnames).
    Lookup walks the name's label-boundary suffixes right-to-left — full
    name first, then with leading labels stripped one at a time — probing
    a dict at each step, which preserves longest-match-wins without
    scanning the pattern list.
    """

    __slots__ = ("_exact", "_prefixes")

    def __init__(self, pairs: Iterable[Tuple[str, str]]):
        # Longest pattern first (stable), matching the linear scan's
        # precedence for the rare name matched by several patterns.
        ordered = sorted(pairs, key=lambda item: len(item[0]), reverse=True)
        self._exact: Dict[str, str] = {}
        self._prefixes: List[Tuple[str, str]] = []
        for pattern, service in ordered:
            if pattern.endswith("."):
                self._prefixes.append((pattern, service))
            else:
                self._exact.setdefault(pattern, service)

    def lookup(self, name: str) -> Optional[str]:
        exact = self._exact
        best: Optional[str] = None
        best_len = -1
        candidate = name
        while True:
            service = exact.get(candidate)
            if service is not None:
                best = service
                best_len = len(candidate)
                break
            dot = candidate.find(".")
            if dot < 0:
                break
            candidate = candidate[dot + 1:]
        # A prefix-style pattern only beats the suffix match when it is
        # longer — the same precedence the length-sorted scan applied.
        for pattern, service in self._prefixes:
            if len(pattern) <= best_len:
                break
            if name.startswith(pattern):
                return service
        return best


class DpiEngine:
    """Flow-to-service classifier over a fingerprint database.

    ``indexed=False`` swaps the suffix-index kernel for the original
    O(#patterns) linear suffix scan — kept as the reference
    implementation for equivalence tests and benchmark baselines.
    """

    def __init__(self, database: FingerprintDatabase, indexed: bool = True):
        self._db = database
        self.indexed = bool(indexed)
        # Linear indices are always built: they are the reference lookup
        # and the source material for the dict index.
        self._sni_index: List[Tuple[str, str]] = []
        self._host_index: List[Tuple[str, str]] = []
        self._hint_index: Dict[str, str] = {}
        self._port_index: Dict[Tuple[int, str], str] = {}
        for fp in database.all_fingerprints():
            for suffix in fp.sni_suffixes:
                self._sni_index.append((suffix, fp.service_name))
            for suffix in fp.host_suffixes:
                self._host_index.append((suffix, fp.service_name))
            for hint in fp.payload_hints:
                self._hint_index[hint] = fp.service_name
            for port, protocol in fp.port_signatures:
                self._port_index[(port, protocol)] = fp.service_name
        self._sni_dict = _SuffixIndex(self._sni_index)
        self._host_dict = _SuffixIndex(self._host_index)
        # Longest suffix first, so "video.xx.fbcdn.net" beats "fbcdn.net".
        self._sni_index.sort(key=lambda item: len(item[0]), reverse=True)
        self._host_index.sort(key=lambda item: len(item[0]), reverse=True)
        self._match = (
            self._match_features if self.indexed else self._match_features_linear
        )
        #: The codebook :meth:`classify_batch` decodes its codes with.
        self.codebook = database.codebook
        #: Service names in catalog order; :meth:`classify_batch`
        #: returns positions in this tuple.
        self.service_names = tuple(
            fp.service_name for fp in database.all_fingerprints()
        )
        # Match outcome -> packed int: position * len(Technique) + technique.
        self._packed = {
            (name, technique): i * len(_TECHNIQUES) + t
            for i, name in enumerate(self.service_names)
            for t, technique in enumerate(_TECHNIQUES)
        }
        # Every codebook code resolved so far, sorted, with its packed
        # outcome (-1: unclassified).
        self._resolved_codes = np.empty(0, dtype=np.int64)
        self._resolved_outcomes = np.empty(0, dtype=np.int64)
        self.report = ClassificationReport()

    def classify(
        self, flow: FlowDescriptor, volume_bytes: int = 0
    ) -> Optional[str]:
        """Return the service name for a flow, or None if unclassifiable.

        ``volume_bytes`` feeds the byte-coverage accounting of
        :attr:`report`.  A scalar flow runs the match cascade itself
        (one ``dpi.cache_misses``): only batches share resolved codes.
        """
        outcome = self._match(
            flow.sni, flow.host, flow.payload_hint, flow.server_port, flow.protocol
        )
        technique = outcome[1] if outcome else None
        self.report.record(technique, volume_bytes)
        obs.add("dpi.cache_misses")
        if outcome is None:
            obs.add("dpi.flows_unclassified")
        else:
            obs.add("dpi.flows_classified")
        return outcome[0] if outcome else None

    def classify_batch(
        self,
        keys: np.ndarray,
        volumes: np.ndarray,
        overflow: Sequence[Features] = (),
    ) -> np.ndarray:
        """Classify a batch of flows given as feature codes.

        ``keys`` are int64 codes against :attr:`codebook` (negative
        codes index ``overflow``), ``volumes`` the per-flow integer byte
        counts.  Returns each flow's position in :attr:`service_names`,
        -1 when unclassified, and updates :attr:`report` exactly as
        per-flow :meth:`classify` calls would: every flow is counted
        individually even though each distinct code is matched once,
        and the integer byte totals do not depend on how the flow stream
        is cut into batches.
        """
        codes = np.asarray(keys, dtype=np.int64)
        volumes = np.asarray(volumes)
        n = len(codes)
        distinct, inverse = np.unique(codes, return_inverse=True)
        resolved, fresh = self._resolve(distinct, overflow)
        outcomes = resolved[inverse]
        classified = outcomes >= 0
        n_classified = int(classified.sum())
        report = self.report
        report.bytes_total += int(volumes.sum())
        report.bytes_classified += int(volumes[classified].sum())
        report.flows_total += n
        report.flows_classified += n_classified
        by_technique = np.bincount(
            outcomes[classified] % len(_TECHNIQUES), minlength=len(_TECHNIQUES)
        )
        for technique, count in zip(_TECHNIQUES, by_technique.tolist()):
            report.by_technique[technique] += count
        obs.add("dpi.cache_hits", n - fresh)
        obs.add("dpi.cache_misses", fresh)
        obs.add("dpi.flows_classified", n_classified)
        obs.add("dpi.flows_unclassified", n - n_classified)
        return np.where(classified, outcomes // len(_TECHNIQUES), -1)

    def _resolve(
        self, distinct: np.ndarray, overflow: Sequence[Features]
    ) -> Tuple[np.ndarray, int]:
        """Packed outcomes of sorted distinct codes, and how many were new.

        Known codes are an array lookup; each new code is decoded and
        matched once, and codebook codes join the resolved arrays (the
        decoded strings are dropped).
        """
        known_codes = self._resolved_codes
        slots = np.searchsorted(known_codes, distinct)
        known = np.zeros(len(distinct), dtype=bool)
        inside = slots < len(known_codes)
        known[inside] = known_codes[slots[inside]] == distinct[inside]
        outcomes = np.empty(len(distinct), dtype=np.int64)
        outcomes[known] = self._resolved_outcomes[slots[known]]
        new = ~known
        fresh = distinct[new]
        if not len(fresh):
            return outcomes, 0
        match, packed = self._match, self._packed.get
        fresh_outcomes = np.fromiter(
            (
                packed(match(*features), -1)
                for features in self.codebook.decode(fresh, overflow)
            ),
            dtype=np.int64,
            count=len(fresh),
        )
        outcomes[new] = fresh_outcomes
        lasting = fresh >= 0
        at = slots[new][lasting]
        self._resolved_codes = np.insert(known_codes, at, fresh[lasting])
        self._resolved_outcomes = np.insert(
            self._resolved_outcomes, at, fresh_outcomes[lasting]
        )
        return outcomes, len(fresh)

    def _match_features(
        self,
        sni: Optional[str],
        host: Optional[str],
        payload_hint: Optional[str],
        server_port: int,
        protocol: str,
    ) -> Optional[Tuple[str, Technique]]:
        """Indexed match over raw flow features (the default kernel)."""
        if sni:
            service = self._sni_dict.lookup(sni)
            if service:
                return service, Technique.SNI
        if host:
            service = self._host_dict.lookup(host)
            if service:
                return service, Technique.HOST
        if payload_hint and payload_hint in self._hint_index:
            return self._hint_index[payload_hint], Technique.PAYLOAD
        key = (server_port, protocol)
        if key in self._port_index:
            return self._port_index[key], Technique.PORT
        return None

    def _match_features_linear(
        self,
        sni: Optional[str],
        host: Optional[str],
        payload_hint: Optional[str],
        server_port: int,
        protocol: str,
    ) -> Optional[Tuple[str, Technique]]:
        """Linear-scan match over raw flow features (reference path)."""
        if sni:
            service = _suffix_lookup(self._sni_index, sni)
            if service:
                return service, Technique.SNI
        if host:
            service = _suffix_lookup(self._host_index, host)
            if service:
                return service, Technique.HOST
        if payload_hint and payload_hint in self._hint_index:
            return self._hint_index[payload_hint], Technique.PAYLOAD
        key = (server_port, protocol)
        if key in self._port_index:
            return self._port_index[key], Technique.PORT
        return None

    def reset_report(self) -> ClassificationReport:
        """Return the current report and start a fresh one."""
        report, self.report = self.report, ClassificationReport()
        return report


def _suffix_lookup(index: List[Tuple[str, str]], name: str) -> Optional[str]:
    """Longest-suffix match of a DNS name against an index.

    Prefix-style patterns (ending with ``.``, e.g. ``"imap."``) match
    name *prefixes* instead, covering protocol-conventional hostnames.
    """
    for suffix, service in index:
        if suffix.endswith("."):
            if name.startswith(suffix):
                return service
        elif name == suffix or name.endswith("." + suffix):
            return service
    return None


__all__ = ["Technique", "ClassificationReport", "DpiEngine"]
