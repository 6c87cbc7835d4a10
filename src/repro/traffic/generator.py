"""Session-level workload generation.

Drives synthetic subscribers through their week on the full network
path: each data session is established through the
:class:`~repro.network.session.SessionManager` (emitting the GTP-C
signalling a probe taps), exchanges fingerprinted flows (GTP-U), follows
the subscriber across communes (RA/TA handovers), and is torn down.

The per-(subscriber, service) volumes and session times derive from the
same :class:`~repro.traffic.intensity.IntensityModel` as the closed-form
volume model, so the two resolutions agree on their statistical
marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro._rng import SeedLike, as_generator, spawn
from repro._time import WEEK_HOURS
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.gtp import FlowDescriptor
from repro.network.handover import HandoverManager
from repro.network.session import SessionManager
from repro.network.topology import NetworkTopology
from repro.traffic.intensity import IntensityModel
from repro.traffic.mobility import MobilityModel
from repro.traffic.subscribers import SubscriberPopulation


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the session-level workload."""

    #: Mean number of weekly sessions per (subscriber, adopted service).
    sessions_per_service: float = 6.0
    #: Mean flows per session (geometric).
    flows_per_session: float = 2.0
    #: Lognormal sigma of per-session volume jitter.
    session_volume_sigma: float = 0.8
    #: Sessions longer than this may span a mobility change (minutes).
    long_session_minutes: float = 45.0

    def __post_init__(self) -> None:
        if self.sessions_per_service <= 0:
            raise ValueError("sessions_per_service must be > 0")
        if self.flows_per_session < 1:
            raise ValueError("flows_per_session must be >= 1")


class _SubscriberDraws:
    """One subscriber's drawn sessions, ready for emission.

    The draw phase (RNG consumption) and the emission phase (session
    manager calls) are split so the generator can buffer several
    subscribers' draws and emit them as one bulk batch without touching
    any RNG stream out of order.  Session columns have one entry per
    session, flow columns one per flow in session order.
    """

    _SESSION_COLUMNS = ("communes", "timestamps", "durations", "n_flows")
    _FLOW_COLUMNS = (
        "flow_times", "flow_dl", "flow_ul", "flow_ids", "feature_codes",
    )
    __slots__ = (
        ("imsi", "wants_4g", "spanning", "mid_hours", "mid_communes")
        + _SESSION_COLUMNS
        + _FLOW_COLUMNS
    )

    def take(self, sessions: np.ndarray) -> "_SubscriberDraws":
        """The draws of the sessions a boolean mask selects."""
        flows = np.repeat(sessions, self.n_flows)
        part = _SubscriberDraws()
        part.imsi, part.wants_4g = self.imsi, self.wants_4g
        part.spanning = None
        for name in self._SESSION_COLUMNS:
            setattr(part, name, getattr(self, name)[sessions])
        for name in self._FLOW_COLUMNS:
            setattr(part, name, getattr(self, name)[flows])
        return part


class SessionLevelGenerator:
    """Generates one measurement week of session-level traffic."""

    def __init__(
        self,
        model: IntensityModel,
        population: SubscriberPopulation,
        topology: NetworkTopology,
        fingerprints: FingerprintDatabase,
        config: WorkloadConfig = WorkloadConfig(),
        seed: SeedLike = None,
    ):
        self._model = model
        self._population = population
        self._topology = topology
        self._fingerprints = fingerprints
        self._config = config
        rng = as_generator(seed)
        self._rng = spawn(rng, "generator.main")
        self._session_manager = SessionManager(topology, spawn(rng, "generator.net"))
        self._mobility = MobilityModel(
            population.country, seed=spawn(rng, "generator.mobility")
        )
        self._handover = HandoverManager(topology, self._session_manager)
        self._cdf_cache: Dict[object, np.ndarray] = {}
        self._head_names = list(model.head_names)
        self.sessions_generated = 0
        self.flows_generated = 0
        #: Optional localization auditor (see
        #: :mod:`repro.network.localization`); when set, every reported
        #: flow contributes a (true position, ULI cell) error sample.
        self.auditor = None

    @property
    def session_manager(self) -> SessionManager:
        """The session manager — attach probes here before running."""
        return self._session_manager

    @property
    def mobility(self) -> MobilityModel:
        return self._mobility

    def run_week(
        self,
        time_limit_hours: Optional[float] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        """Generate the whole week of traffic for every subscriber.

        ``time_limit_hours`` truncates the generated week (useful in
        tests); sessions starting past the limit are skipped.

        Subscribers' weeks are drawn with vectorized RNG calls and
        buffered; each ~``chunk_size`` buffered flows leave as one bulk
        attach/report/detach round-trip through the session manager
        (``None`` flushes after every subscriber).  Long sessions during
        which the subscriber changes commune take the scalar
        attach/handover/detach path right after the buffer holding the
        rest of that subscriber's week is flushed.  Every RNG stream is
        consumed in exactly the per-subscriber order, so the emitted
        event stream is identical for every chunk size.
        """
        horizon = time_limit_hours if time_limit_hours is not None else WEEK_HOURS
        if chunk_size is None:
            chunk_size = 1
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        buffer: List[_SubscriberDraws] = []
        pending_flows = 0
        with obs.span("generate"):
            for subscriber in self._population:
                obs.add("generator.subscribers")
                draws = self._draw_subscriber(subscriber, horizon)
                if draws is None:
                    continue
                if len(draws.communes):
                    buffer.append(draws)
                    pending_flows += len(draws.flow_ids)
                if draws.spanning is not None:
                    # Flush first so the network RNG stream and the
                    # probe's record order stay in subscriber order.
                    pending_flows = self._flush_chunk(buffer)
                    self._emit_spanning(draws.spanning)
                elif pending_flows >= chunk_size:
                    pending_flows = self._flush_chunk(buffer)
            self._flush_chunk(buffer)

    def _flush_chunk(self, buffer: List[_SubscriberDraws]) -> int:
        """Emit buffered subscribers as one bulk batch; returns 0."""
        if not buffer:
            return 0
        sessions_per = np.asarray(
            [len(d.communes) for d in buffer], dtype=np.int64
        )
        imsi = np.repeat(
            np.asarray([d.imsi for d in buffer], dtype=np.int64), sessions_per
        )
        wants_4g = np.repeat(
            np.asarray([d.wants_4g for d in buffer], dtype=bool), sessions_per
        )
        communes = np.concatenate([d.communes for d in buffer])
        timestamps = np.concatenate([d.timestamps for d in buffer])
        durations = np.concatenate([d.durations for d in buffer])
        n_flows = np.concatenate([d.n_flows for d in buffer])
        manager = self._session_manager
        created = manager.attach_bulk(
            imsi, communes, wants_4g, timestamps, subscribers=len(buffer)
        )
        manager.report_flows_bulk(
            session_teids=created.teids,
            flows_per_session=n_flows,
            timestamps_s=np.concatenate([d.flow_times for d in buffer]),
            dl_bytes=np.concatenate([d.flow_dl for d in buffer]),
            ul_bytes=np.concatenate([d.flow_ul for d in buffer]),
            flow_ids=np.concatenate([d.flow_ids for d in buffer]),
            feature_codes=np.concatenate([d.feature_codes for d in buffer]),
            codebook=self._fingerprints.codebook,
        )
        manager.detach_bulk(
            imsi, created.teids, created.tech_codes, timestamps + durations * 60.0
        )
        if self.auditor is not None:
            self.auditor.record(
                np.repeat(communes, n_flows), np.repeat(created.cell_ids, n_flows)
            )
        buffer.clear()
        return 0

    def _temporal_cdfs(self, urbanization_class) -> np.ndarray:
        """Per-service temporal CDFs for one urbanization class.

        Cached inverse-transform tables: sampling a session's time bin
        becomes a ``searchsorted`` instead of a ``rng.choice(p=...)``.
        """
        cdfs = self._cdf_cache.get(urbanization_class)
        if cdfs is None:
            curves = self._model.class_temporal_weights[urbanization_class]
            cdfs = np.cumsum(curves, axis=1)
            cdfs /= cdfs[:, -1:]
            self._cdf_cache[urbanization_class] = cdfs
        return cdfs

    def _draw_subscriber(
        self, subscriber, horizon: float
    ) -> Optional[_SubscriberDraws]:
        """Draw one subscriber's week (all RNG consumption, no emission)."""
        rng = self._rng
        model = self._model
        config = self._config
        itinerary = self._mobility.itinerary_for(subscriber)
        home = subscriber.home_commune
        home_cls = self._population.country.class_of(home)
        cdfs = self._temporal_cdfs(home_cls)
        bins_per_hour = model.axis.bins_per_hour
        adoption = model.adoption[home]

        services = np.asarray(subscriber.adopted_services, dtype=np.int64)
        if not len(services):
            return None
        session_counts = rng.poisson(config.sessions_per_service, size=len(services))
        # Per-adopter weekly volume: the commune-level expectation is
        # adoption * per-adopter, so divide the per-subscriber figure by
        # the local adoption rate.
        p_adopt = np.maximum(adoption[services].astype(np.float64), 1e-6)
        weekly_dl = (
            model.per_subscriber_dl[home, services].astype(np.float64)
            / p_adopt
            * subscriber.activity_scale
        )
        weekly_ul = (
            model.per_subscriber_ul[home, services].astype(np.float64)
            / p_adopt
            * subscriber.activity_scale
        )
        drawn = np.flatnonzero(
            (session_counts > 0) & ~(weekly_dl + weekly_ul <= 0)
        )
        if not len(drawn):
            return None

        # Three draws per service, in service order: time bin, volume
        # jitter, offset within the bin.  Each service's jitter is
        # normalised by its own ndarray.sum(), whose pairwise rounding a
        # segmented reduction would not reproduce.
        counts = session_counts[drawn]
        seg_bins: List[np.ndarray] = []
        seg_jitter: List[np.ndarray] = []
        seg_offsets: List[np.ndarray] = []
        jitter_sums: List[float] = []
        for service_index, n_s in zip(services[drawn].tolist(), counts.tolist()):
            seg_bins.append(
                np.searchsorted(cdfs[service_index], rng.random(n_s), side="right")
            )
            jitter = np.exp(rng.normal(0.0, config.session_volume_sigma, n_s))
            seg_jitter.append(jitter)
            jitter_sums.append(jitter.sum())
            seg_offsets.append(rng.random(n_s))
        jitter = np.concatenate(seg_jitter) / np.repeat(jitter_sums, counts)
        all_hours = (np.concatenate(seg_bins) + np.concatenate(seg_offsets)) / (
            bins_per_hour
        )
        keep = all_hours < horizon
        kept_per_service = np.add.reduceat(
            keep.astype(np.int64), np.concatenate(([0], np.cumsum(counts)[:-1]))
        )
        if not kept_per_service.any():
            return None
        hours = all_hours[keep]
        dl_sessions = (np.repeat(weekly_dl[drawn], counts) * jitter)[keep]
        ul_sessions = (np.repeat(weekly_ul[drawn], counts) * jitter)[keep]
        emitting = kept_per_service > 0
        seg_services = services[drawn][emitting].tolist()
        seg_counts = kept_per_service[emitting]

        n_sessions = len(hours)
        timestamps = hours * 3600.0
        communes = itinerary.locations_at(hours)

        durations = rng.exponential(15.0, n_sessions) + 1.0
        n_flows = rng.geometric(1.0 / config.flows_per_session, size=n_sessions)
        total_flows = int(n_flows.sum())
        flow_starts = np.concatenate(([0], np.cumsum(n_flows)))[:-1]

        # Per-flow volume splits: dirichlet(ones(k)) per session ==
        # segment-normalized standard exponentials.
        raw = rng.standard_exponential(total_flows)
        session_sums = np.add.reduceat(raw, flow_starts)
        splits = raw / np.repeat(session_sums, n_flows)
        flow_dl = np.repeat(dl_sessions, n_flows) * splits
        flow_ul = np.repeat(ul_sessions, n_flows) * splits
        within = np.arange(total_flows) - np.repeat(flow_starts, n_flows)
        flow_times = np.repeat(timestamps, n_flows) + 30.0 * within

        svc_seg_starts = np.concatenate(([0], np.cumsum(seg_counts)))[:-1]
        flows_per_service = np.add.reduceat(n_flows, svc_seg_starts)
        emitted = [
            self._fingerprints.emit_flow_features(
                self._head_names[service_index], count
            )
            for service_index, count in zip(
                seg_services, flows_per_service.tolist()
            )
        ]
        flow_ids = np.concatenate([ids for ids, _ in emitted])
        feature_codes = np.concatenate([codes for _, codes in emitted])

        self.sessions_generated += n_sessions
        self.flows_generated += total_flows
        obs.add("generator.sessions", n_sessions)
        obs.add("generator.flows", total_flows)

        draws = _SubscriberDraws()
        draws.imsi = subscriber.imsi_hash
        draws.wants_4g = subscriber.has_4g_device
        draws.communes = communes
        draws.timestamps = timestamps
        draws.durations = durations
        draws.n_flows = n_flows
        draws.flow_times = flow_times
        draws.flow_dl = flow_dl
        draws.flow_ul = flow_ul
        draws.flow_ids = flow_ids
        draws.feature_codes = feature_codes
        draws.spanning = None

        # Long sessions whose subscriber moves mid-session exercise the
        # scalar handover path; everything else rides the bulk path.
        spanning = durations > config.long_session_minutes
        if spanning.any():
            mid_hours = np.minimum(hours + durations / 120.0, WEEK_HOURS - 1e-6)
            mid_communes = itinerary.locations_at(mid_hours)
            spanning &= mid_communes != communes
            if spanning.any():
                part = draws.take(spanning)
                part.mid_hours = mid_hours[spanning]
                part.mid_communes = mid_communes[spanning]
                draws = draws.take(~spanning)
                draws.spanning = part
        return draws

    def _emit_spanning(self, part: _SubscriberDraws) -> None:
        """Emit handover-spanning sessions through the scalar path.

        Each session's last flow rides after the move to the session's
        mid-point commune; the ULI it carries is whatever the handover
        left (possibly stale after an intra-RA move).
        """
        manager = self._session_manager
        flow_starts = np.cumsum(part.n_flows) - part.n_flows
        cell_ids: List[int] = []
        decoded = iter(self._fingerprints.codebook.decode(part.feature_codes))
        for i in range(len(part.communes)):
            session = manager.attach(
                imsi_hash=part.imsi,
                commune_id=int(part.communes[i]),
                wants_4g=part.wants_4g,
                timestamp_s=float(part.timestamps[i]),
            )
            base = int(flow_starts[i])
            k = int(part.n_flows[i])
            mid_s = float(part.mid_hours[i]) * 3600.0
            for f in range(k):
                idx = base + f
                flow_time = float(part.flow_times[idx])
                if f == k - 1:
                    session = self._handover.move(
                        session, int(part.mid_communes[i]), part.wants_4g, mid_s
                    )
                    flow_time = mid_s
                sni, host, hint, port, protocol = next(decoded)
                manager.report_flow(
                    session,
                    FlowDescriptor(
                        flow_id=int(part.flow_ids[idx]),
                        sni=sni,
                        host=host,
                        server_port=port,
                        protocol=protocol,
                        payload_hint=hint,
                    ),
                    dl_bytes=float(part.flow_dl[idx]),
                    ul_bytes=float(part.flow_ul[idx]),
                    timestamp_s=flow_time,
                )
                cell_ids.append(session.uli.cell_id)
            manager.detach(
                session,
                timestamp_s=float(part.timestamps[i])
                + float(part.durations[i]) * 60.0,
            )
        if self.auditor is not None:
            true_communes = np.repeat(part.communes, part.n_flows)
            true_communes[flow_starts + part.n_flows - 1] = part.mid_communes
            self.auditor.record(true_communes, np.asarray(cell_ids))


__all__ = ["WorkloadConfig", "SessionLevelGenerator"]
