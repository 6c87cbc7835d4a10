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
    """One subscriber's drawn week, ready for emission.

    The draw phase (RNG consumption) and the emission phase (session
    manager calls) are split so the chunked path can buffer several
    subscribers' draws and emit them as one bulk batch without touching
    any RNG stream out of order.
    """

    __slots__ = (
        "imsi", "wants_4g", "communes", "timestamps", "durations",
        "n_flows", "flow_starts", "total_flows", "flow_times", "flow_dl",
        "flow_ul", "flow_ids", "feature_codes", "spanning", "mid_hours",
        "mid_communes",
    )


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
        batched: bool = True,
        chunk_size: Optional[int] = None,
    ) -> None:
        """Generate the whole week of traffic for every subscriber.

        ``time_limit_hours`` truncates the generated week (useful in
        tests); sessions starting past the limit are skipped.

        ``batched=True`` (the default) drives each subscriber's week
        through the columnar session fast path — one bulk
        attach/report/detach round-trip per subscriber — with batched
        RNG draws from the same distributions as the per-session path.
        Handover-spanning long sessions and auditor-instrumented runs
        (``auditor`` set) always use the per-session path, which is also
        selectable with ``batched=False`` for baselines and debugging.
        The two modes draw from the shared stream in different orders,
        so they are statistically equivalent, not bit-identical.

        ``chunk_size`` (batched mode only) buffers subscribers' draws
        and emits one bulk attach/report/detach round-trip per
        ~``chunk_size`` flows instead of per subscriber.  Every RNG
        stream is consumed in exactly the per-subscriber order —
        vectorized draws concatenate across calls and the buffer is
        flushed before any handover-spanning subscriber takes the
        scalar path — so the emitted event stream is identical to the
        unchunked one for every chunk size.
        """
        horizon = time_limit_hours if time_limit_hours is not None else WEEK_HOURS
        with obs.span("generate"):
            if batched and self.auditor is None:
                if chunk_size is not None:
                    self._run_week_chunked(horizon, chunk_size)
                else:
                    for subscriber in self._population:
                        obs.add("generator.subscribers")
                        draws = self._draw_subscriber_batched(
                            subscriber, horizon
                        )
                        if draws is not None:
                            self._emit_subscriber(draws)
            else:
                for subscriber in self._population:
                    obs.add("generator.subscribers")
                    self._run_subscriber(subscriber, horizon)

    def _run_week_chunked(self, horizon: float, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        buffer: List[_SubscriberDraws] = []
        pending_flows = 0
        for subscriber in self._population:
            obs.add("generator.subscribers")
            draws = self._draw_subscriber_batched(subscriber, horizon)
            if draws is None:
                continue
            if draws.spanning is not None:
                # Handover-spanning sessions go through the scalar path;
                # flush the buffer first so the network RNG stream and
                # the probe's record order stay in subscriber order.
                pending_flows = self._flush_chunk(buffer)
                self._emit_subscriber(draws)
                continue
            buffer.append(draws)
            pending_flows += draws.total_flows
            if pending_flows >= chunk_size:
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
        teids, tech_codes = manager.attach_bulk(
            imsi, communes, wants_4g, timestamps, subscribers=len(buffer)
        )
        manager.report_flows_bulk(
            session_teids=teids,
            flows_per_session=n_flows,
            timestamps_s=np.concatenate([d.flow_times for d in buffer]),
            dl_bytes=np.concatenate([d.flow_dl for d in buffer]),
            ul_bytes=np.concatenate([d.flow_ul for d in buffer]),
            flow_ids=np.concatenate([d.flow_ids for d in buffer]),
            feature_codes=np.concatenate([d.feature_codes for d in buffer]),
            codebook=self._fingerprints.codebook,
        )
        manager.detach_bulk(imsi, teids, tech_codes, timestamps + durations * 60.0)
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

    def _draw_subscriber_batched(
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

        # Long sessions whose subscriber moves mid-session exercise the
        # scalar handover path; everything else rides the bulk path.
        spanning = durations > config.long_session_minutes
        mid_hours = mid_communes = None
        if spanning.any():
            mid_hours = np.minimum(hours + durations / 120.0, WEEK_HOURS - 1e-6)
            mid_communes = itinerary.locations_at(mid_hours)
            spanning &= mid_communes != communes

        draws = _SubscriberDraws()
        draws.imsi = subscriber.imsi_hash
        draws.wants_4g = subscriber.has_4g_device
        draws.communes = communes
        draws.timestamps = timestamps
        draws.durations = durations
        draws.n_flows = n_flows
        draws.flow_starts = flow_starts
        draws.total_flows = total_flows
        draws.flow_times = flow_times
        draws.flow_dl = flow_dl
        draws.flow_ul = flow_ul
        draws.flow_ids = flow_ids
        draws.feature_codes = feature_codes
        draws.spanning = spanning if spanning.any() else None
        draws.mid_hours = mid_hours
        draws.mid_communes = mid_communes
        return draws

    def _emit_subscriber(self, draws: _SubscriberDraws) -> None:
        """Emit one subscriber's drawn week through the session manager."""
        manager = self._session_manager
        imsi = draws.imsi
        wants_4g = draws.wants_4g
        communes = draws.communes
        timestamps = draws.timestamps
        durations = draws.durations
        n_flows = draws.n_flows
        flow_times = draws.flow_times
        flow_dl, flow_ul = draws.flow_dl, draws.flow_ul
        flow_ids, feature_codes = draws.flow_ids, draws.feature_codes
        codebook = self._fingerprints.codebook

        if draws.spanning is None:
            teids, tech_codes = manager.attach_bulk(
                imsi, communes, wants_4g, timestamps
            )
            manager.report_flows_bulk(
                session_teids=teids,
                flows_per_session=n_flows,
                timestamps_s=flow_times,
                dl_bytes=flow_dl,
                ul_bytes=flow_ul,
                flow_ids=flow_ids,
                feature_codes=feature_codes,
                codebook=codebook,
            )
            manager.detach_bulk(
                imsi, teids, tech_codes, timestamps + durations * 60.0
            )
            return
        spanning = draws.spanning
        mid_hours, mid_communes = draws.mid_hours, draws.mid_communes
        flow_starts = draws.flow_starts
        bulk = ~spanning
        if bulk.any():
            keep_flows = np.repeat(bulk, n_flows)
            teids, tech_codes = manager.attach_bulk(
                imsi, communes[bulk], wants_4g, timestamps[bulk]
            )
            manager.report_flows_bulk(
                session_teids=teids,
                flows_per_session=n_flows[bulk],
                timestamps_s=flow_times[keep_flows],
                dl_bytes=flow_dl[keep_flows],
                ul_bytes=flow_ul[keep_flows],
                flow_ids=flow_ids[keep_flows],
                feature_codes=feature_codes[keep_flows],
                codebook=codebook,
            )
            manager.detach_bulk(
                imsi, teids, tech_codes, timestamps[bulk] + durations[bulk] * 60.0
            )
        # Spanning flows, in session then flow order, decoded at once.
        decoded = iter(
            codebook.decode(feature_codes[np.repeat(spanning, n_flows)])
        )
        for i in np.flatnonzero(spanning).tolist():
            session = manager.attach(
                imsi_hash=imsi,
                commune_id=int(communes[i]),
                wants_4g=wants_4g,
                timestamp_s=float(timestamps[i]),
            )
            base = int(flow_starts[i])
            k = int(n_flows[i])
            mid_s = float(mid_hours[i]) * 3600.0
            for f in range(k):
                idx = base + f
                flow_time = float(flow_times[idx])
                if f == k - 1:
                    session = self._handover.move(
                        session, int(mid_communes[i]), wants_4g, mid_s
                    )
                    flow_time = mid_s
                sni, host, hint, port, protocol = next(decoded)
                manager.report_flow(
                    session,
                    FlowDescriptor(
                        flow_id=int(flow_ids[idx]),
                        sni=sni,
                        host=host,
                        server_port=port,
                        protocol=protocol,
                        payload_hint=hint,
                    ),
                    dl_bytes=float(flow_dl[idx]),
                    ul_bytes=float(flow_ul[idx]),
                    timestamp_s=flow_time,
                )
            manager.detach(
                session, timestamp_s=float(timestamps[i]) + float(durations[i]) * 60.0
            )

    def _run_subscriber(self, subscriber, horizon: float) -> None:
        rng = self._rng
        model = self._model
        config = self._config
        itinerary = self._mobility.itinerary_for(subscriber)
        home = subscriber.home_commune
        home_cls = self._population.country.class_of(home)
        curves = model.class_temporal_weights[home_cls]
        bins_per_hour = model.axis.bins_per_hour
        adoption = model.adoption[home]

        for service_index in subscriber.adopted_services:
            # Per-adopter weekly volume: the commune-level expectation is
            # adoption * per-adopter, so divide the per-subscriber figure
            # by the local adoption rate.
            p_adopt = max(float(adoption[service_index]), 1e-6)
            weekly_dl = (
                float(model.per_subscriber_dl[home, service_index])
                / p_adopt
                * subscriber.activity_scale
            )
            weekly_ul = (
                float(model.per_subscriber_ul[home, service_index])
                / p_adopt
                * subscriber.activity_scale
            )
            n_sessions = int(rng.poisson(config.sessions_per_service))
            if n_sessions == 0 or weekly_dl + weekly_ul <= 0:
                continue

            weights = curves[service_index]
            bins = rng.choice(len(weights), size=n_sessions, p=weights / weights.sum())
            jitter = np.exp(
                rng.normal(0.0, config.session_volume_sigma, n_sessions)
            )
            jitter /= jitter.sum()
            service_name = model.head_names[service_index]

            for k in range(n_sessions):
                start_hour = (bins[k] + rng.random()) / bins_per_hour
                if start_hour >= horizon:
                    continue
                self._one_session(
                    subscriber,
                    itinerary,
                    service_name,
                    start_hour,
                    weekly_dl * float(jitter[k]),
                    weekly_ul * float(jitter[k]),
                )

    def _one_session(
        self,
        subscriber,
        itinerary,
        service_name: str,
        start_hour: float,
        dl_bytes: float,
        ul_bytes: float,
    ) -> None:
        rng = self._rng
        config = self._config
        commune = itinerary.location_at(start_hour)
        timestamp = start_hour * 3600.0
        session = self._session_manager.attach(
            imsi_hash=subscriber.imsi_hash,
            commune_id=commune,
            wants_4g=subscriber.has_4g_device,
            timestamp_s=timestamp,
        )
        self.sessions_generated += 1
        obs.add("generator.sessions")

        duration_minutes = float(rng.exponential(15.0)) + 1.0
        n_flows = 1 + int(rng.geometric(1.0 / config.flows_per_session) - 1)
        splits = rng.dirichlet(np.ones(n_flows))

        # Long sessions may span a mobility change, exercising the
        # handover path (and the ULI staleness it creates).
        span_move = duration_minutes > config.long_session_minutes
        mid_hour = min(start_hour + duration_minutes / 120.0, WEEK_HOURS - 1e-6)
        mid_commune = itinerary.location_at(mid_hour)

        for f in range(n_flows):
            flow = self._fingerprints.emit_flow(service_name)
            flow_time = timestamp + f * 30.0
            true_commune = commune
            if span_move and mid_commune != commune and f == n_flows - 1:
                session = self._handover.move(
                    session,
                    mid_commune,
                    subscriber.has_4g_device,
                    mid_hour * 3600.0,
                )
                flow_time = mid_hour * 3600.0
                true_commune = mid_commune
            self._session_manager.report_flow(
                session,
                flow,
                dl_bytes=dl_bytes * float(splits[f]),
                ul_bytes=ul_bytes * float(splits[f]),
                timestamp_s=flow_time,
            )
            self.flows_generated += 1
            obs.add("generator.flows")
            if self.auditor is not None:
                self.auditor.record(true_commune, session.uli)

        end = timestamp + duration_minutes * 60.0
        self._session_manager.detach(session, timestamp_s=end)


__all__ = ["WorkloadConfig", "SessionLevelGenerator"]
