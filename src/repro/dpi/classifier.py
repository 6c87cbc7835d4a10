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

Batches arrive as int64 feature codes against the database's
:class:`~repro.network.gtp.FeatureCodebook`, one code per distinct
feature tuple ``(sni, host, payload_hint, server_port, protocol)``.
Each technique reads one field of a code, so the engine compiles the
cascade once, at construction, into one outcome table per field: the
SNI and host tables hold one suffix lookup per codebook suffix,
broadcast over its edge labels, which is sound while no fingerprint
pattern depends on the label (the tests check every label).
:meth:`DpiEngine.classify_batch` splits the codes with
:meth:`~repro.network.gtp.FeatureCodebook.split` and resolves them with
four array gathers in priority order; only the rows of a batch's
overflow table (features the codebook cannot encode) are matched one
by one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import Features, FlowDescriptor, endpoint_name


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
        # Longest pattern first (stable): the longest pattern wins for
        # the rare name matched by several.
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
        # longer — the precedence of a longest-first scan of all patterns.
        for pattern, service in self._prefixes:
            if len(pattern) <= best_len:
                break
            if name.startswith(pattern):
                return service
        return best


class DpiEngine:
    """Flow-to-service classifier over a fingerprint database."""

    def __init__(self, database: FingerprintDatabase):
        sni: List[Tuple[str, str]] = []
        host: List[Tuple[str, str]] = []
        self._hint_index: Dict[str, str] = {}
        self._port_index: Dict[Tuple[int, str], str] = {}
        for fp in database.all_fingerprints():
            sni.extend((suffix, fp.service_name) for suffix in fp.sni_suffixes)
            host.extend((suffix, fp.service_name) for suffix in fp.host_suffixes)
            for hint in fp.payload_hints:
                self._hint_index[hint] = fp.service_name
            for port, protocol in fp.port_signatures:
                self._port_index[(port, protocol)] = fp.service_name
        self._sni_dict = _SuffixIndex(sni)
        self._host_dict = _SuffixIndex(host)
        #: The codebook :meth:`classify_batch` splits its codes with.
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
        self._tables = self._compile()
        self.report = ClassificationReport()

    def _compile(self) -> Tuple[np.ndarray, ...]:
        """Packed outcomes (-1: no match) per SNI, host, hint and port field."""
        codebook, packed = self.codebook, self._packed
        dtype = np.min_scalar_type(-len(packed))

        def endpoints(index: _SuffixIndex, technique: Technique) -> np.ndarray:
            outcomes = [
                packed.get((index.lookup(endpoint_name(suffix, 0)), technique), -1)
                for suffix in codebook.suffixes
            ]
            return np.concatenate(
                ([-1], np.repeat(outcomes, codebook.LABELS))
            ).astype(dtype)

        hints = np.asarray(
            [-1]
            + [
                packed.get((self._hint_index.get(hint), Technique.PAYLOAD), -1)
                for hint in codebook.hints
            ],
            dtype=dtype,
        )
        ports = np.full(codebook.PORT_FIELDS, -1, dtype=dtype)
        for (port, protocol), service in self._port_index.items():
            ports[codebook.port_field(port, protocol)] = packed[
                (service, Technique.PORT)
            ]
        return (
            endpoints(self._sni_dict, Technique.SNI),
            endpoints(self._host_dict, Technique.HOST),
            hints,
            ports,
        )

    def classify(
        self, flow: FlowDescriptor, volume_bytes: int = 0
    ) -> Optional[str]:
        """Return the service name for a flow, or None if unclassifiable.

        ``volume_bytes`` feeds the byte-coverage accounting of
        :attr:`report`.  The flow is encoded and classified as a
        one-flow batch.
        """
        codes, overflow = self.codebook.encode([flow.features])
        volumes = np.asarray([volume_bytes], dtype=np.int64)
        position = int(self.classify_batch(codes, volumes, overflow)[0])
        return self.service_names[position] if position >= 0 else None

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
        -1 when unclassified, and updates :attr:`report`, whose integer
        byte totals do not depend on how the flow stream is cut into
        batches.
        """
        codes = np.asarray(keys, dtype=np.int64)
        volumes = np.asarray(volumes)
        n = len(codes)
        foreign = codes < 0
        fields = self.codebook.split(np.maximum(codes, 0))
        sni, host, hint, port = (t[f] for t, f in zip(self._tables, fields))
        # Priority order: SNI > HOST > PAYLOAD > PORT.
        outcomes = np.where(
            sni >= 0,
            sni,
            np.where(host >= 0, host, np.where(hint >= 0, hint, port)),
        )
        if foreign.any():
            rows = np.asarray(
                [self._packed.get(self._match_features(*f), -1) for f in overflow],
                dtype=outcomes.dtype,
            )
            outcomes[foreign] = rows[-1 - codes[foreign]]
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
        obs.add("dpi.flows_classified", n_classified)
        obs.add("dpi.flows_unclassified", n - n_classified)
        return np.where(classified, outcomes // len(_TECHNIQUES), -1)

    def _match_features(
        self,
        sni: Optional[str],
        host: Optional[str],
        payload_hint: Optional[str],
        server_port: int,
        protocol: str,
    ) -> Optional[Tuple[str, Technique]]:
        """The match cascade over raw features (overflow rows only)."""
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

    def reset_report(self) -> ClassificationReport:
        """Return the current report and start a fresh one."""
        report, self.report = self.report, ClassificationReport()
        return report


__all__ = ["Technique", "ClassificationReport", "DpiEngine"]
