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
    session, flow columns one per flow in session order.  A session is
    ``spanning`` when its subscriber is in another commune,
    ``mid_communes``, at its mid-point ``mid_hours``: its last flow
    rides after that move.
    """

    SESSION_COLUMNS = (
        "communes", "timestamps", "durations", "n_flows",
        "spanning", "mid_hours", "mid_communes",
    )
    FLOW_COLUMNS = (
        "flow_times", "flow_dl", "flow_ul", "flow_ids", "feature_codes",
    )
    __slots__ = ("imsi", "wants_4g") + SESSION_COLUMNS + FLOW_COLUMNS


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
        self._handover = HandoverManager(
            topology, self._session_manager, spawn(rng, "generator.handover")
        )
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
        round-trip through the session manager (``None`` flushes after
        every subscriber): attach, flows, handovers of the sessions
        whose subscriber moved, their last flows, detach.  Attach and
        handover draws come from two streams, each consumed in
        subscriber order, so the emitted sessions, cells and ULI updates
        are identical for every chunk size.
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
                buffer.append(draws)
                pending_flows += len(draws.flow_ids)
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
        col = {
            name: np.concatenate([getattr(d, name) for d in buffer])
            for name in _SubscriberDraws.SESSION_COLUMNS
            + _SubscriberDraws.FLOW_COLUMNS
        }
        n_flows, spanning = col["n_flows"], col["spanning"]
        # A spanning session's last flow waits for the session's move.
        last = (np.cumsum(n_flows) - 1)[spanning]
        early = np.ones(len(col["flow_ids"]), dtype=bool)
        early[last] = False
        codebook = self._fingerprints.codebook
        manager = self._session_manager
        created = manager.attach_bulk(
            imsi, col["communes"], wants_4g, col["timestamps"],
            subscribers=len(buffer),
        )
        manager.report_flows_bulk(
            session_teids=created.teids,
            flows_per_session=n_flows - spanning,
            timestamps_s=col["flow_times"][early],
            dl_bytes=col["flow_dl"][early],
            ul_bytes=col["flow_ul"][early],
            flow_ids=col["flow_ids"][early],
            feature_codes=col["feature_codes"][early],
            codebook=codebook,
        )
        tech_codes = created.tech_codes
        if len(last):
            mid_s = col["mid_hours"][spanning] * 3600.0
            moved = self._handover.move(
                created.take(spanning),
                col["mid_communes"][spanning],
                wants_4g[spanning],
                mid_s,
            )
            manager.report_flows_bulk(
                session_teids=moved.teids,
                flows_per_session=np.ones(len(last), dtype=np.int64),
                timestamps_s=mid_s,
                dl_bytes=col["flow_dl"][last],
                ul_bytes=col["flow_ul"][last],
                flow_ids=col["flow_ids"][last],
                feature_codes=col["feature_codes"][last],
                codebook=codebook,
            )
            tech_codes = tech_codes.copy()
            tech_codes[spanning] = moved.tech_codes
        manager.detach_bulk(
            imsi,
            created.teids,
            tech_codes,
            col["timestamps"] + col["durations"] * 60.0,
        )
        if self.auditor is not None:
            # Each flow's true commune and ULI cell, in flow order.
            flow_communes = np.repeat(col["communes"], n_flows)
            flow_cells = np.repeat(created.cell_ids, n_flows)
            if len(last):
                flow_communes[last] = col["mid_communes"][spanning]
                flow_cells[last] = moved.cell_ids
            self.auditor.record(flow_communes, flow_cells)
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
        # Probes count whole bytes: integer volumes make every byte sum
        # downstream exact, whatever order it is taken in.
        flow_dl = np.rint(np.repeat(dl_sessions, n_flows) * splits).astype(np.int64)
        flow_ul = np.rint(np.repeat(ul_sessions, n_flows) * splits).astype(np.int64)
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

        # Long sessions may span a commune change: the mobility model
        # says where the subscriber is at the session's mid-point.
        spanning = durations > config.long_session_minutes
        mid_hours, mid_communes = hours, communes
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
        draws.spanning = spanning
        draws.mid_hours = mid_hours
        draws.mid_communes = mid_communes
        draws.flow_times = flow_times
        draws.flow_dl = flow_dl
        draws.flow_ul = flow_ul
        draws.flow_ids = flow_ids
        draws.feature_codes = feature_codes
        return draws


__all__ = ["WorkloadConfig", "SessionLevelGenerator"]
