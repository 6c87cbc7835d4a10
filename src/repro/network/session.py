"""PDP context / EPS bearer lifecycle and IP flows.

A session models one data session: on 3G a PDP context, on 4G an EPS
bearer (the differences that matter to the probes — message names,
interface, ULI format — reduce to a technology code; the rest is
deliberately uniform).  The :class:`SessionManager` drives whole
batches of sessions through their lifecycle and publishes the resulting
columnar control- and user-plane events to registered listeners, which
is exactly how the passive probes observe the network.
"""

from __future__ import annotations

from typing import Callable, List, Union

import numpy as np

from repro import obs
from repro.network.gtp import (
    FeatureCodebook,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcUpdateBulk,
    GtpuBulk,
    TeidAllocator,
)
from repro.network.topology import NetworkTopology

ControlListener = Callable[
    [Union[GtpcCreateBulk, GtpcUpdateBulk, GtpcDeleteBulk]], None
]
UserPlaneListener = Callable[[GtpuBulk], None]


class SessionManager:
    """Creates, relocates and tears down sessions, publishing GTP events.

    The manager plays the role of the whole signalling chain
    (SGSN↔GGSN / MME↔S-GW↔P-GW): callers only say *what happens to a
    batch of sessions* (attach, move, transfer traffic, detach) and the
    manager emits the columnar control- and user-plane batches a probe
    on Gn / S5-S8 would see.  Sessions are not tracked here: their
    lifetime is confined to the caller's batch.
    """

    def __init__(self, topology: NetworkTopology, rng: np.random.Generator):
        self._topology = topology
        self._rng = rng
        self._teids = TeidAllocator()
        self._control_listeners: List[ControlListener] = []
        self._user_listeners: List[UserPlaneListener] = []

    def add_control_listener(self, listener: ControlListener) -> None:
        """Subscribe to GTP-C batches (what a probe taps)."""
        self._control_listeners.append(listener)

    def add_user_plane_listener(self, listener: UserPlaneListener) -> None:
        """Subscribe to GTP-U flow-record batches."""
        self._user_listeners.append(listener)

    def _emit_control(self, bulk) -> None:
        for listener in self._control_listeners:
            listener(bulk)

    def _uli_columns(
        self, commune_ids: np.ndarray, wants_4g, rng: np.random.Generator
    ) -> dict:
        """Technology and serving cell of sessions camped in communes."""
        tech_codes = self._topology.available_technology_codes(
            commune_ids, wants_4g
        )
        bs_ids, tech_codes, ra_ids, cell_communes = (
            self._topology.serving_station_codes(commune_ids, tech_codes, rng)
        )
        return dict(
            tech_codes=tech_codes,
            routing_area_ids=ra_ids,
            cell_ids=bs_ids,
            cell_commune_ids=cell_communes,
        )

    def attach_bulk(
        self,
        imsi_hash,
        commune_ids: np.ndarray,
        wants_4g,
        timestamps_s: np.ndarray,
        subscribers: int = 1,
    ) -> GtpcCreateBulk:
        """Establish a batch of sessions; returns the emitted create batch.

        ``imsi_hash`` and ``wants_4g`` are scalars for a one-subscriber
        batch or per-session arrays when the generator packs many
        subscribers into one batch; ``subscribers`` then says how many,
        and lands as a summed attribute on the per-chunk
        ``gtp.signalling`` span (one span per chunk, not one per
        subscriber).  The batch carries each session's TEID, technology
        and serving cell.
        """
        with obs.span("gtp.signalling", attrs={"subscribers": subscribers}):
            n = len(commune_ids)
            uli = self._uli_columns(commune_ids, wants_4g, self._rng)
            bulk = GtpcCreateBulk(
                timestamps_s=np.asarray(timestamps_s, dtype=np.float64),
                imsi_hashes=_per_session(imsi_hash, n),
                teids=self._teids.allocate_many(n),
                **uli,
            )
            self._emit_control(bulk)
            # One bulk entry stands for the request/response pair.
            obs.add("gtp.control_messages", 2 * n)
        return bulk

    def update_bulk(
        self,
        imsi_hash,
        teids: np.ndarray,
        commune_ids: np.ndarray,
        wants_4g,
        timestamps_s: np.ndarray,
        rng: np.random.Generator,
    ) -> GtpcUpdateBulk:
        """Refresh the ULI of established sessions after RA/TA or RAT changes.

        The caller (the :class:`~repro.network.handover.HandoverManager`)
        decides *which* moves warrant an update; this method picks each
        session's new serving cell from ``rng`` and emits one
        UpdatePDPContext / ModifyBearer message per session.
        """
        with obs.span("gtp.signalling"):
            bulk = GtpcUpdateBulk(
                timestamps_s=np.asarray(timestamps_s, dtype=np.float64),
                imsi_hashes=_per_session(imsi_hash, len(teids)),
                teids=teids,
                **self._uli_columns(commune_ids, wants_4g, rng),
            )
            self._emit_control(bulk)
            obs.add("gtp.control_messages", len(bulk))
        return bulk

    def report_flows_bulk(
        self,
        session_teids: np.ndarray,
        flows_per_session: np.ndarray,
        timestamps_s: np.ndarray,
        dl_bytes: np.ndarray,
        ul_bytes: np.ndarray,
        flow_ids: np.ndarray,
        feature_codes: np.ndarray,
        codebook: FeatureCodebook,
    ) -> GtpuBulk:
        """Account a session-grouped batch of user-plane flow records.

        Each flow's DPI features arrive as one code of ``feature_codes``
        against ``codebook``.
        """
        with obs.span("gtp.user_plane"):
            bulk = GtpuBulk(
                session_teids=session_teids,
                flows_per_session=flows_per_session,
                timestamps_s=timestamps_s,
                dl_bytes=dl_bytes,
                ul_bytes=ul_bytes,
                flow_ids=flow_ids,
                feature_codes=feature_codes,
                codebook=codebook,
            )
            for listener in self._user_listeners:
                listener(bulk)
            obs.add("gtp.user_flow_records", len(bulk))
        return bulk

    def detach_bulk(
        self,
        imsi_hash,
        teids: np.ndarray,
        tech_codes: np.ndarray,
        timestamps_s: np.ndarray,
    ) -> None:
        """Tear down a batch of sessions (scalar or per-session imsi)."""
        with obs.span("gtp.signalling"):
            bulk = GtpcDeleteBulk(
                timestamps_s=np.asarray(timestamps_s, dtype=np.float64),
                imsi_hashes=_per_session(imsi_hash, len(teids)),
                teids=teids,
                tech_codes=tech_codes,
            )
            self._emit_control(bulk)
            obs.add("gtp.control_messages", len(bulk))


def _per_session(imsi_hash, n: int) -> np.ndarray:
    """An int64 imsi column from a scalar or a per-session array."""
    if np.ndim(imsi_hash) == 0:
        return np.full(n, imsi_hash, dtype=np.int64)
    return np.asarray(imsi_hash, dtype=np.int64)


__all__ = ["SessionManager"]
