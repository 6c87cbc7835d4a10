"""Passive probes on the Gn and S5/S8 interfaces.

A :class:`CoreProbe` reproduces the measurement apparatus of §2:

- it inspects **GTP-C** to maintain the tunnel state table — for each
  TEID, the subscriber (hashed identifier) and the current ULI, i.e. the
  commune of the last reporting cell;
- it inspects **GTP-U** to account per-flow traffic, joining each record
  with the tunnel state to geo-reference it;
- it emits columnar :class:`ProbeRecordBatch` chunks, the raw input of
  the dataset pipeline (DPI classification and commune-level
  aggregation follow downstream).

The 3G (Gn) and 4G (S5/S8) gateways being co-located, one probe object
observes both planes of both technologies — exactly the deployment
convenience the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, Union

import numpy as np

from repro import obs
from repro._rng import SeedLike, as_generator
from repro.geo.coverage import Technology
from repro.network.gtp import (
    TECH_BY_CODE,
    TECH_CODES,
    EMPTY_CODEBOOK,
    FeatureCodebook,
    Features,
    FlowDescriptor,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcUpdateBulk,
    GtpuBulk,
)
from repro.network.session import SessionManager


@dataclass(frozen=True)
class ProbeRecord:
    """One geo-referenced, DPI-ready flow accounting record."""

    timestamp_s: float
    imsi_hash: int
    commune_id: int
    technology: Technology
    flow: FlowDescriptor
    dl_bytes: int
    ul_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.dl_bytes + self.ul_bytes


@dataclass
class ProbeRecordBatch:
    """A columnar batch of geo-referenced flow accounting records.

    The probe emits these, one row per flow.  Every column is a numpy
    array; a flow's DPI features are one int64 code of
    ``feature_codes`` against ``codebook``, and negative codes index the
    batch's own ``overflow`` table of features the codebook has no code
    for.  :meth:`to_records` expands back to scalar :class:`ProbeRecord`
    objects (the trace format's rows).
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
    overflow: Tuple[Features, ...] = ()

    def __len__(self) -> int:
        return len(self.timestamps_s)

    def to_records(self) -> List[ProbeRecord]:
        """Materialize the batch as scalar :class:`ProbeRecord` objects."""
        out: List[ProbeRecord] = []
        features = self.codebook.decode(self.feature_codes, self.overflow)
        for i, (flow_id, (sni, host, hint, port, protocol)) in enumerate(
            zip(self.flow_ids.tolist(), features)
        ):
            out.append(
                ProbeRecord(
                    timestamp_s=float(self.timestamps_s[i]),
                    imsi_hash=int(self.imsi_hashes[i]),
                    commune_id=int(self.commune_ids[i]),
                    technology=TECH_BY_CODE[int(self.tech_codes[i])],
                    flow=FlowDescriptor(
                        flow_id=flow_id,
                        sni=sni,
                        host=host,
                        server_port=port,
                        protocol=protocol,
                        payload_hint=hint,
                    ),
                    dl_bytes=int(self.dl_bytes[i]),
                    ul_bytes=int(self.ul_bytes[i]),
                )
            )
        return out

    def recoded(self, codebook: FeatureCodebook) -> "ProbeRecordBatch":
        """The same batch with its codes re-expressed against ``codebook``.

        Free when the codebooks are equal (the common case: every
        database built from one catalog has the same codebook);
        otherwise each distinct code is decoded and encoded once.
        """
        if codebook is self.codebook or codebook == self.codebook:
            return self
        distinct, inverse = np.unique(self.feature_codes, return_inverse=True)
        codes, overflow = codebook.encode(
            self.codebook.decode(distinct, self.overflow)
        )
        return replace(
            self,
            feature_codes=codes[inverse],
            codebook=codebook,
            overflow=overflow,
        )

    @classmethod
    def concat(cls, batches: List["ProbeRecordBatch"]) -> "ProbeRecordBatch":
        """Concatenate batches (order preserved) into one.

        Codes are expressed against the first batch's codebook, and the
        overflow tables are appended, shifting each batch's negative
        codes past the rows before it.
        """
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        if len(batches) == 1:
            return batches[0]
        codebook = batches[0].codebook
        batches = [b.recoded(codebook) for b in batches]
        codes = [b.feature_codes for b in batches]
        overflow: Tuple[Features, ...] = ()
        for i, b in enumerate(batches):
            if b.overflow:
                codes[i] = np.where(codes[i] < 0, codes[i] - len(overflow), codes[i])
                overflow += b.overflow
        return cls(
            timestamps_s=np.concatenate([b.timestamps_s for b in batches]),
            imsi_hashes=np.concatenate([b.imsi_hashes for b in batches]),
            commune_ids=np.concatenate([b.commune_ids for b in batches]),
            tech_codes=np.concatenate([b.tech_codes for b in batches]),
            dl_bytes=np.concatenate([b.dl_bytes for b in batches]),
            ul_bytes=np.concatenate([b.ul_bytes for b in batches]),
            flow_ids=np.concatenate([b.flow_ids for b in batches]),
            feature_codes=np.concatenate(codes),
            codebook=codebook,
            overflow=overflow,
        )

    @classmethod
    def from_records(
        cls,
        records: List[ProbeRecord],
        codebook: FeatureCodebook = EMPTY_CODEBOOK,
    ) -> "ProbeRecordBatch":
        """Pack scalar records into one columnar batch.

        Flow features are encoded against ``codebook``; features it has
        no code for go to the batch's overflow table.
        """
        codes, overflow = codebook.encode(r.flow.features for r in records)
        return cls(
            timestamps_s=np.asarray([r.timestamp_s for r in records]),
            imsi_hashes=np.asarray([r.imsi_hash for r in records], dtype=np.int64),
            commune_ids=np.asarray([r.commune_id for r in records], dtype=np.int64),
            tech_codes=np.asarray(
                [TECH_CODES[r.technology] for r in records], dtype=np.uint8
            ),
            dl_bytes=np.asarray([r.dl_bytes for r in records], dtype=np.int64),
            ul_bytes=np.asarray([r.ul_bytes for r in records], dtype=np.int64),
            flow_ids=np.asarray([r.flow.flow_id for r in records], dtype=np.int64),
            feature_codes=codes,
            codebook=codebook,
            overflow=overflow,
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
    """The passive probe: correlates GTP-C and GTP-U into probe records."""

    def __init__(
        self,
        control_loss_rate: float = 0.0,
        seed: SeedLike = None,
    ):
        """``control_loss_rate`` drops a fraction of GTP-C messages, to
        model imperfect capture; orphaned user-plane traffic is counted
        but produces no record (as in the real pipeline, where it simply
        cannot be geo-referenced).  ``seed`` is any
        :data:`~repro._rng.SeedLike`, including an existing generator
        (how the builder hands the probe a spawned stream)."""
        if not 0 <= control_loss_rate < 1:
            raise ValueError(
                f"control_loss_rate must be in [0, 1), got {control_loss_rate}"
            )
        # Tunnel table: teid -> (imsi_hash, commune_id, tech_code).
        self._tunnels: Dict[int, Tuple[int, int, int]] = {}
        # Arrival-ordered record batches.
        self._records: List[ProbeRecordBatch] = []
        self._loss_rate = control_loss_rate
        self._rng = as_generator(seed)
        self.stats = ProbeStats()
        # Streaming mode (see stream_to): records flow to a sink in
        # bounded chunks instead of accumulating until drained.
        self._sink = None
        self._sink_chunk_rows = 0
        self._pending_rows = 0

    def attach_to(self, sessions: SessionManager) -> "CoreProbe":
        """Tap both planes of a session manager; returns self for chaining."""
        sessions.add_control_listener(self.on_control)
        sessions.add_user_plane_listener(self.on_user_plane)
        return self

    def stream_to(self, sink, chunk_rows: int = 8192) -> "CoreProbe":
        """Stream records to ``sink`` in ~``chunk_rows``-record chunks.

        This is the bounded-memory path: instead of accumulating every
        record until :meth:`drain`, the probe coalesces arrivals into
        columnar batches and hands each full chunk to ``sink(batch)``
        immediately, so the working set never exceeds one chunk.  Call
        :meth:`flush_stream` after the generator run to push the partial
        tail chunk.  Returns self for chaining.
        """
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self._sink = sink
        self._sink_chunk_rows = chunk_rows
        return self

    def flush_stream(self) -> None:
        """Emit whatever is buffered to the sink (streaming mode only)."""
        if self._sink is None or not self._records:
            return
        store, self._records = self._records, []
        self._pending_rows = 0
        batch = ProbeRecordBatch.concat(store)
        obs.add("stream.chunks")
        self._sink(batch)

    def _store(self, batch: ProbeRecordBatch) -> None:
        """Buffer one batch; flush a chunk in streaming mode."""
        self._records.append(batch)
        if self._sink is not None:
            self._pending_rows += len(batch)
            if self._pending_rows >= self._sink_chunk_rows:
                self.flush_stream()

    def on_control(
        self, bulk: Union[GtpcCreateBulk, GtpcUpdateBulk, GtpcDeleteBulk]
    ) -> None:
        """GTP-C inspection: maintain the TEID -> (user, ULI) table.

        A :class:`GtpcCreateBulk` entry stands for the request/response
        pair, so it accounts two control messages and the tunnel becomes
        known unless *both* are lost.  A :class:`GtpcUpdateBulk` entry is
        one message; a kept one sets the tunnel's ULI, known tunnel or
        not.  A kept delete forgets the tunnel.
        """
        n = len(bulk)
        if isinstance(bulk, GtpcDeleteBulk):
            self.stats.control_messages += n
            teids = bulk.teids
            if self._loss_rate:
                teids = teids[self._rng.random(n) >= self._loss_rate]
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
        if self._loss_rate:
            kept = self._rng.random(n) >= self._loss_rate
            if pair:
                kept |= self._rng.random(n) >= self._loss_rate
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

    def drain(self) -> List[ProbeRecord]:
        """Return and clear the accumulated records (scalar view)."""
        store, self._records = self._records, []
        return [record for batch in store for record in batch.to_records()]

    @property
    def n_tracked_tunnels(self) -> int:
        return len(self._tunnels)


__all__ = ["ProbeRecord", "ProbeRecordBatch", "ProbeStats", "CoreProbe"]
