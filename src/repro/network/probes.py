"""Passive probes on the Gn and S5/S8 interfaces.

A :class:`CoreProbe` reproduces the measurement apparatus of §2:

- it inspects **GTP-C** to maintain the tunnel state table — for each
  TEID, the subscriber (hashed identifier) and the current ULI, i.e. the
  commune of the last reporting cell;
- it inspects **GTP-U** to account per-flow traffic, joining each flow
  with the tunnel state to geo-reference it;
- it streams the joined records to a sink as columnar
  :class:`ProbeRecordBatch` chunks, the raw input of the dataset
  pipeline (DPI classification and commune-level aggregation follow
  downstream).  The batch is the probe's only record type.

The 3G (Gn) and 4G (S5/S8) gateways being co-located, one probe object
observes both planes of both technologies — exactly the deployment
convenience the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro import obs
from repro._rng import KeyedStream, SeedLike, root_key
from repro.network.gtp import (
    FeatureCodebook,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcUpdateBulk,
    GtpuBulk,
)
from repro.network.session import SessionManager


@dataclass
class ProbeRecordBatch:
    """A columnar batch of geo-referenced flow accounting records.

    The probe emits these, one row per flow, and they are the only form
    its records take.  Every column is a numpy array; a flow's DPI
    features are one int64 code of ``feature_codes`` against
    ``codebook``.
    """

    timestamps_s: np.ndarray
    imsi_hashes: np.ndarray
    commune_ids: np.ndarray
    tech_codes: np.ndarray
    dl_bytes: np.ndarray
    ul_bytes: np.ndarray
    flow_ids: np.ndarray
    feature_codes: np.ndarray
    codebook: FeatureCodebook

    def __len__(self) -> int:
        return len(self.timestamps_s)

    def require_codebook(self, codebook: FeatureCodebook) -> None:
        """Raise ``ValueError`` unless the codes are against ``codebook``.

        Codes are never re-encoded: every build gives the probe and the
        DPI engine equal codebooks, since a codebook is a pure function
        of the catalog's fingerprints.
        """
        if self.codebook is not codebook and self.codebook != codebook:
            raise ValueError(
                "probe batch codes are against a different feature codebook"
            )

    @classmethod
    def concat(cls, batches: List["ProbeRecordBatch"]) -> "ProbeRecordBatch":
        """Concatenate batches (order preserved) into one.

        Every batch must share the first batch's codebook.
        """
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0]
        codebook = batches[0].codebook
        for batch in batches[1:]:
            batch.require_codebook(codebook)
        return cls(
            timestamps_s=np.concatenate([b.timestamps_s for b in batches]),
            imsi_hashes=np.concatenate([b.imsi_hashes for b in batches]),
            commune_ids=np.concatenate([b.commune_ids for b in batches]),
            tech_codes=np.concatenate([b.tech_codes for b in batches]),
            dl_bytes=np.concatenate([b.dl_bytes for b in batches]),
            ul_bytes=np.concatenate([b.ul_bytes for b in batches]),
            flow_ids=np.concatenate([b.flow_ids for b in batches]),
            feature_codes=np.concatenate([b.feature_codes for b in batches]),
            codebook=codebook,
        )


@dataclass
class ProbeStats:
    """Probe health counters, exposed for pipeline validation."""

    control_messages: int = 0
    user_packets: int = 0
    orphan_packets: int = 0  # GTP-U with no known tunnel (lost GTP-C)
    records: int = 0

    def merge(self, other: "ProbeStats") -> "ProbeStats":
        """Fold another probe's counters (e.g. a worker shard's) in."""
        self.control_messages += other.control_messages
        self.user_packets += other.user_packets
        self.orphan_packets += other.orphan_packets
        self.records += other.records
        return self


class CoreProbe:
    """The passive probe: joins GTP-C and GTP-U into record batches.

    Joined records go to ``sink`` in columnar chunks: the probe
    coalesces arrivals and hands ``sink(batch)`` a
    :class:`ProbeRecordBatch` as soon as ~``chunk_rows`` records are
    buffered, so its working set never exceeds one chunk.  Call
    :meth:`flush_stream` after the generator run to push the partial
    tail chunk.
    """

    def __init__(
        self,
        sink: Callable[[ProbeRecordBatch], None],
        chunk_rows: int = 8192,
        control_loss_rate: float = 0.0,
        seed: SeedLike = None,
    ):
        """``control_loss_rate`` drops a fraction of GTP-C messages, to
        model imperfect capture; orphaned user-plane traffic is counted
        but produces no record (as in the real pipeline, where it simply
        cannot be geo-referenced).  Each loss is a keyed draw of the
        session's key under ``seed``'s root key (see :meth:`on_control`),
        so what is lost does not depend on how messages are batched."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if not 0 <= control_loss_rate < 1:
            raise ValueError(
                f"control_loss_rate must be in [0, 1), got {control_loss_rate}"
            )
        # Tunnel table: teid -> (imsi_hash, commune_id, tech_code).
        self._tunnels: Dict[int, Tuple[int, int, int]] = {}
        # Arrival-ordered batches not yet handed to the sink.
        self._pending: List[ProbeRecordBatch] = []
        self._pending_rows = 0
        self._sink = sink
        self._chunk_rows = chunk_rows
        self._loss_rate = control_loss_rate
        self._loss_draws = KeyedStream(root_key(seed), "probe.loss")
        self.stats = ProbeStats()

    def attach_to(self, sessions: SessionManager) -> "CoreProbe":
        """Tap both planes of a session manager; returns self for chaining."""
        sessions.add_control_listener(self.on_control)
        sessions.add_user_plane_listener(self.on_user_plane)
        return self

    def flush_stream(self) -> None:
        """Hand whatever is buffered to the sink as one batch."""
        if not self._pending:
            return
        store, self._pending = self._pending, []
        self._pending_rows = 0
        batch = ProbeRecordBatch.concat(store)
        obs.add("stream.chunks")
        self._sink(batch)

    def _store(self, batch: ProbeRecordBatch) -> None:
        """Buffer one batch; flush once a chunk's worth is buffered."""
        self._pending.append(batch)
        self._pending_rows += len(batch)
        if self._pending_rows >= self._chunk_rows:
            self.flush_stream()

    def on_control(
        self, bulk: Union[GtpcCreateBulk, GtpcUpdateBulk, GtpcDeleteBulk]
    ) -> None:
        """GTP-C inspection: maintain the TEID -> (user, ULI) table.

        A :class:`GtpcCreateBulk` entry stands for the request/response
        pair, so it accounts two control messages and the tunnel becomes
        known unless *both* are lost.  A :class:`GtpcUpdateBulk` entry is
        one message; a kept one sets the tunnel's ULI, known tunnel or
        not.  A kept delete forgets the tunnel.  A session's create pair,
        update and delete draw counters 0-1, 2 and 3 of its key.
        """
        n = len(bulk)
        draws, rate = self._loss_draws, self._loss_rate
        if isinstance(bulk, GtpcDeleteBulk):
            self.stats.control_messages += n
            teids = bulk.teids
            if rate:
                teids = teids[draws.uniform(bulk.session_keys, 3) >= rate]
            for teid in teids.tolist():
                self._tunnels.pop(teid, None)
            return
        pair = not isinstance(bulk, GtpcUpdateBulk)
        self.stats.control_messages += 2 * n if pair else n
        rows = zip(
            bulk.teids.tolist(),
            bulk.imsi_hashes.tolist(),
            bulk.cell_commune_ids.tolist(),
            bulk.tech_codes.tolist(),
        )
        if rate:
            if pair:
                kept = (draws.uniform(bulk.session_keys, 0) >= rate) | (
                    draws.uniform(bulk.session_keys, 1) >= rate
                )
            else:
                kept = draws.uniform(bulk.session_keys, 2) >= rate
            rows = (row for keep, row in zip(kept.tolist(), rows) if keep)
        tunnels = self._tunnels
        for teid, imsi, commune, tech in rows:
            tunnels[teid] = (imsi, commune, tech)

    def on_user_plane(self, bulk: GtpuBulk) -> None:
        """GTP-U inspection: join a batch with the tunnel table."""
        n_flows = len(bulk)
        self.stats.user_packets += n_flows
        n_sessions = len(bulk.session_teids)
        imsi = np.empty(n_sessions, dtype=np.int64)
        commune = np.empty(n_sessions, dtype=np.int64)
        tech = np.empty(n_sessions, dtype=np.uint8)
        known = np.ones(n_sessions, dtype=bool)
        tunnels = self._tunnels
        for j, teid in enumerate(bulk.session_teids.tolist()):
            state = tunnels.get(teid)
            if state is None:
                known[j] = False
            else:
                imsi[j], commune[j], tech[j] = state
        flows_per_session = bulk.flows_per_session
        if known.all():
            batch = ProbeRecordBatch(
                timestamps_s=bulk.timestamps_s,
                imsi_hashes=np.repeat(imsi, flows_per_session),
                commune_ids=np.repeat(commune, flows_per_session),
                tech_codes=np.repeat(tech, flows_per_session),
                dl_bytes=bulk.dl_bytes,
                ul_bytes=bulk.ul_bytes,
                flow_ids=bulk.flow_ids,
                feature_codes=bulk.feature_codes,
                codebook=bulk.codebook,
            )
        else:
            mask = np.repeat(known, flows_per_session)
            self.stats.orphan_packets += int(n_flows - mask.sum())
            batch = ProbeRecordBatch(
                timestamps_s=bulk.timestamps_s[mask],
                imsi_hashes=np.repeat(imsi[known], flows_per_session[known]),
                commune_ids=np.repeat(commune[known], flows_per_session[known]),
                tech_codes=np.repeat(tech[known], flows_per_session[known]),
                dl_bytes=bulk.dl_bytes[mask],
                ul_bytes=bulk.ul_bytes[mask],
                flow_ids=bulk.flow_ids[mask],
                feature_codes=bulk.feature_codes[mask],
                codebook=bulk.codebook,
            )
        if len(batch):
            self.stats.records += len(batch)
            self._store(batch)

    # Aliases kept only for ``perfbench/workloads.py::_trace_build``,
    # which patches all four handler names through
    # ``inspect.getattr_static``; drop them together with those entries.
    on_control_bulk = on_control
    on_user_plane_bulk = on_user_plane

    @property
    def n_tracked_tunnels(self) -> int:
        return len(self._tunnels)


__all__ = ["ProbeRecordBatch", "ProbeStats", "CoreProbe"]
