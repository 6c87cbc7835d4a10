"""PDP context / EPS bearer lifecycle and IP flows.

A :class:`UserSession` models one data session: on 3G a PDP context, on
4G an EPS bearer (the differences that matter to the probes — message
names, interface, ULI format — are captured; the rest is deliberately
uniform).  The :class:`SessionManager` drives lifecycles and publishes
the resulting control- and user-plane events to registered listeners,
which is exactly how the passive probes observe the network.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, List

import numpy as np

from repro import obs
from repro.geo.coverage import Technology
from repro.network.gtp import (
    FeatureCodebook,
    FlowDescriptor,
    GtpcCreateBulk,
    GtpcDeleteBulk,
    GtpcMessage,
    GtpcMessageType,
    GtpuBulk,
    GtpuPacket,
    TeidAllocator,
    UserLocationInformation,
)
from repro.network.topology import NetworkTopology


class BearerState(enum.Enum):
    """Lifecycle states of a PDP context / EPS bearer."""

    IDLE = "idle"
    ACTIVE = "active"
    RELEASED = "released"


@dataclass
class UserSession:
    """One active data session of one subscriber."""

    imsi_hash: int
    teid: int
    technology: Technology
    uli: UserLocationInformation
    state: BearerState = BearerState.ACTIVE
    established_at_s: float = 0.0

    @property
    def is_3g(self) -> bool:
        return self.technology is Technology.G3


ControlListener = Callable[[GtpcMessage], None]
UserPlaneListener = Callable[[GtpuPacket], None]


class SessionManager:
    """Creates, relocates and tears down sessions, publishing GTP events.

    The manager plays the role of the whole signalling chain
    (SGSN↔GGSN / MME↔S-GW↔P-GW): callers only say *what happens to the
    subscriber* (attach, move, transfer traffic, detach) and the manager
    emits the control- and user-plane messages a probe on Gn / S5-S8
    would see.
    """

    def __init__(self, topology: NetworkTopology, rng: np.random.Generator):
        self._topology = topology
        self._rng = rng
        self._teids = TeidAllocator()
        self._control_listeners: List[ControlListener] = []
        self._user_listeners: List[UserPlaneListener] = []
        self._bulk_control_listeners: List[Callable] = []
        self._bulk_user_listeners: List[Callable] = []
        self.active_sessions: dict = {}

    def add_control_listener(self, listener: ControlListener) -> None:
        """Subscribe to GTP-C messages (what a probe taps)."""
        self._control_listeners.append(listener)

    def add_user_plane_listener(self, listener: UserPlaneListener) -> None:
        """Subscribe to GTP-U accounting records."""
        self._user_listeners.append(listener)

    def add_bulk_control_listener(self, listener: Callable) -> None:
        """Subscribe to columnar GTP-C batches (the probe fast path).

        Bulk listeners receive the :class:`GtpcCreateBulk` /
        :class:`GtpcDeleteBulk` objects of the bulk methods; per-message
        listeners see only the scalar methods' messages, so a tap that
        must see every session subscribes to both.
        """
        self._bulk_control_listeners.append(listener)

    def add_bulk_user_plane_listener(self, listener: Callable) -> None:
        """Subscribe to columnar GTP-U batches (the probe fast path)."""
        self._bulk_user_listeners.append(listener)

    def _emit_control(self, message: GtpcMessage) -> None:
        for listener in self._control_listeners:
            listener(message)

    def _emit_user(self, packet: GtpuPacket) -> None:
        for listener in self._user_listeners:
            listener(packet)

    def _uli_for(self, commune_id: int, technology: Technology) -> UserLocationInformation:
        station = self._topology.serving_station(commune_id, technology, self._rng)
        return UserLocationInformation(
            technology=station.technology,
            routing_area_id=station.routing_area_id,
            cell_id=station.bs_id,
            cell_commune_id=station.commune_id,
        )

    def attach(
        self,
        imsi_hash: int,
        commune_id: int,
        wants_4g: bool,
        timestamp_s: float,
    ) -> UserSession:
        """Establish a data session for a subscriber camped in a commune."""
        technology = self._topology.available_technology(commune_id, wants_4g)
        uli = self._uli_for(commune_id, technology)
        teid = self._teids.allocate()
        session = UserSession(
            imsi_hash=imsi_hash,
            teid=teid,
            technology=uli.technology,
            uli=uli,
            established_at_s=timestamp_s,
        )
        request = (
            GtpcMessageType.CREATE_PDP_CONTEXT_REQUEST
            if session.is_3g
            else GtpcMessageType.CREATE_SESSION_REQUEST
        )
        response = (
            GtpcMessageType.CREATE_PDP_CONTEXT_RESPONSE
            if session.is_3g
            else GtpcMessageType.CREATE_SESSION_RESPONSE
        )
        self._emit_control(
            GtpcMessage(
                message_type=request,
                timestamp_s=timestamp_s,
                imsi_hash=imsi_hash,
                teid=teid,
                uli=uli,
            )
        )
        self._emit_control(
            GtpcMessage(
                message_type=response,
                timestamp_s=timestamp_s,
                imsi_hash=imsi_hash,
                teid=teid,
                uli=uli,
            )
        )
        obs.add("gtp.control_messages", 2)
        self.active_sessions[teid] = session
        return session

    def update_location(
        self,
        session: UserSession,
        commune_id: int,
        wants_4g: bool,
        timestamp_s: float,
    ) -> UserSession:
        """Refresh a session's ULI after a RA/TA or inter-RAT change.

        The caller (the :class:`~repro.network.handover.HandoverManager`)
        decides *whether* the move warrants an update; this method emits
        the corresponding UpdatePDPContext / ModifyBearer message.
        """
        if session.state is not BearerState.ACTIVE:
            raise ValueError("cannot relocate a non-active session")
        technology = self._topology.available_technology(commune_id, wants_4g)
        uli = self._uli_for(commune_id, technology)
        updated = replace(session, uli=uli, technology=uli.technology)
        message_type = (
            GtpcMessageType.UPDATE_PDP_CONTEXT_REQUEST
            if updated.is_3g
            else GtpcMessageType.MODIFY_BEARER_REQUEST
        )
        self._emit_control(
            GtpcMessage(
                message_type=message_type,
                timestamp_s=timestamp_s,
                imsi_hash=session.imsi_hash,
                teid=session.teid,
                uli=uli,
            )
        )
        obs.add("gtp.control_messages")
        self.active_sessions[session.teid] = updated
        return updated

    def report_flow(
        self,
        session: UserSession,
        flow: FlowDescriptor,
        dl_bytes: float,
        ul_bytes: float,
        timestamp_s: float,
    ) -> GtpuPacket:
        """Account user-plane traffic for a flow inside a session."""
        if session.state is not BearerState.ACTIVE:
            raise ValueError("cannot carry traffic on a non-active session")
        packet = GtpuPacket(
            timestamp_s=timestamp_s,
            teid=session.teid,
            flow=flow,
            dl_bytes=dl_bytes,
            ul_bytes=ul_bytes,
        )
        self._emit_user(packet)
        obs.add("gtp.user_flow_records")
        return packet

    def detach(self, session: UserSession, timestamp_s: float) -> UserSession:
        """Tear down a session."""
        message_type = (
            GtpcMessageType.DELETE_PDP_CONTEXT_REQUEST
            if session.is_3g
            else GtpcMessageType.DELETE_SESSION_REQUEST
        )
        self._emit_control(
            GtpcMessage(
                message_type=message_type,
                timestamp_s=timestamp_s,
                imsi_hash=session.imsi_hash,
                teid=session.teid,
            )
        )
        obs.add("gtp.control_messages")
        released = replace(session, state=BearerState.RELEASED)
        self.active_sessions.pop(session.teid, None)
        return released

    # ------------------------------------------------------------------
    # columnar fast path
    # ------------------------------------------------------------------
    #
    # The bulk methods drive whole batches of sessions through the same
    # lifecycle as attach/report_flow/detach, emitting columnar Gtp*Bulk
    # events to the bulk listeners instead of per-message objects to the
    # scalar ones.  Bulk sessions are not entered into
    # ``active_sessions`` — their lifetime is confined to the caller's
    # batch, and the per-session bookkeeping is exactly the overhead
    # this path removes.

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
            tech_codes = self._topology.available_technology_codes(
                commune_ids, wants_4g
            )
            bs_ids, tech_codes, ra_ids, cell_communes = (
                self._topology.serving_station_codes(
                    commune_ids, tech_codes, self._rng
                )
            )
            teids = self._teids.allocate_many(n)
            imsi_hashes = (
                np.full(n, imsi_hash, dtype=np.int64)
                if np.ndim(imsi_hash) == 0
                else np.asarray(imsi_hash, dtype=np.int64)
            )
            bulk = GtpcCreateBulk(
                timestamps_s=np.asarray(timestamps_s, dtype=np.float64),
                imsi_hashes=imsi_hashes,
                teids=teids,
                tech_codes=tech_codes,
                routing_area_ids=ra_ids,
                cell_ids=bs_ids,
                cell_commune_ids=cell_communes,
            )
            for listener in self._bulk_control_listeners:
                listener(bulk)
            # One bulk entry stands for the request/response pair.
            obs.add("gtp.control_messages", 2 * n)
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
            for listener in self._bulk_user_listeners:
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
            imsi_hashes = (
                np.full(len(teids), imsi_hash, dtype=np.int64)
                if np.ndim(imsi_hash) == 0
                else np.asarray(imsi_hash, dtype=np.int64)
            )
            bulk = GtpcDeleteBulk(
                timestamps_s=np.asarray(timestamps_s, dtype=np.float64),
                imsi_hashes=imsi_hashes,
                teids=teids,
                tech_codes=tech_codes,
            )
            for listener in self._bulk_control_listeners:
                listener(bulk)
            obs.add("gtp.control_messages", len(bulk))


__all__ = [
    "BearerState",
    "FlowDescriptor",
    "UserSession",
    "SessionManager",
]
