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

Every draw is keyed (see :mod:`repro._rng`): session counts by
``(subscriber, service)``, a session's time, volume jitter, duration
and flow count by its key (the subscriber's key and the session's
ordinal among their sessions), a flow's volume split and features by
its key (the session's key and the flow's ordinal).  A subscriber's
week is therefore the same whichever block, shard or worker draws it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro._rng import (
    KeyedStream,
    SeedLike,
    child_keys,
    exponential_variates,
    geometric_variates,
    identity_keys,
    normal_variates,
    poisson_variates,
    root_key,
)
from repro._time import WEEK_HOURS
from repro.dpi.fingerprints import FingerprintDatabase
from repro.network.handover import HandoverManager
from repro.network.session import SessionManager
from repro.network.topology import NetworkTopology
from repro.traffic.intensity import IntensityModel
from repro.traffic.mobility import MobilityModel, locations_at
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
        self._fingerprints = fingerprints
        self._config = config
        root = root_key(seed)
        self._session_manager = SessionManager(topology, root)
        self._mobility = MobilityModel(population.country, seed=root)
        self._handover = HandoverManager(topology, self._session_manager)
        self._count_draws = KeyedStream(root, "generator.sessions")
        self._session_draws = KeyedStream(root, "generator.session")
        self._flow_draws = KeyedStream(root, "generator.flow")
        # Per-subscriber columns, in population order.
        subscribers = population.subscribers
        n = len(subscribers)
        self._imsi = np.fromiter((s.imsi_hash for s in subscribers), np.int64, n)
        self._keys = identity_keys(self._imsi)
        self._homes = np.fromiter((s.home_commune for s in subscribers), np.int64, n)
        self._wants_4g = np.fromiter((s.has_4g_device for s in subscribers), bool, n)
        self._scales = np.fromiter((s.activity_scale for s in subscribers), np.float64, n)
        self._n_adopted = np.fromiter(
            (len(s.adopted_services) for s in subscribers), np.int64, n
        )
        self._adopted = np.fromiter(
            (j for s in subscribers for j in s.adopted_services),
            np.int64,
            int(self._n_adopted.sum()),
        )
        self._adopted_starts = np.concatenate(([0], np.cumsum(self._n_adopted)))
        self._fingerprint_index = np.asarray(
            [fingerprints.service_index(name) for name in model.head_names]
        )
        # One temporal CDF row per (urbanization class, head service):
        # sampling a session's time bin is a ``searchsorted`` per row.
        n_head = len(model.head_names)
        self._cdf_rows: Dict[int, np.ndarray] = {}
        for cls, curves in model.class_temporal_weights.items():
            cdfs = np.cumsum(curves, axis=1)
            cdfs /= cdfs[:, -1:]
            for service in range(n_head):
                self._cdf_rows[int(cls) * n_head + service] = cdfs[service]
        self._home_classes = population.country.urbanization.classes.astype(np.int64)
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

        Subscribers are drawn in blocks, one array pass per block, and
        each block leaves as one bulk round-trip through the session
        manager: attach, flows, handovers of the sessions whose
        subscriber moved, their last flows, detach.  A block takes
        subscribers until their expected flow count (adopted services
        × ``sessions_per_service`` × ``flows_per_session``) reaches
        ``chunk_size`` (``None``: one subscriber per block).  Every draw
        is keyed by the subscriber, session or flow it is for, so the
        emitted sessions, cells, ULI updates and flows are the same for
        every chunk size.
        """
        horizon = time_limit_hours if time_limit_hours is not None else WEEK_HOURS
        if chunk_size is None:
            chunk_size = 1
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        config = self._config
        expected = (
            self._n_adopted * config.sessions_per_service * config.flows_per_session
        ).tolist()
        with obs.span("generate"):
            lo, pending = 0, 0.0
            for i, flows in enumerate(expected):
                pending += flows
                if pending >= chunk_size or i == len(expected) - 1:
                    obs.add("generator.subscribers", i + 1 - lo)
                    block = self._draw_block(lo, i + 1, horizon)
                    if block is not None:
                        self._emit_block(block)
                    lo, pending = i + 1, 0.0

    def _time_bins(
        self, classes: np.ndarray, services: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """Inverse-CDF time bins of sessions, one ``searchsorted`` per
        (class, service) row present."""
        rows = classes * len(self._fingerprint_index) + services
        order = np.argsort(rows, kind="stable")
        bounds = np.flatnonzero(np.diff(rows[order])) + 1
        bins = np.empty(len(u), dtype=np.int64)
        for segment in np.split(order, bounds):
            cdf = self._cdf_rows[int(rows[segment[0]])]
            bins[segment] = np.searchsorted(cdf, u[segment], side="right")
        return bins

    def _draw_block(self, lo: int, hi: int, horizon: float) -> Optional[dict]:
        """Draw subscribers ``lo:hi`` of the population (no emission).

        Returns the block's session and flow columns, sessions in
        (subscriber, service, ordinal) order, or None without sessions.
        """
        model, config = self._model, self._config
        draws = self._session_draws
        owners = np.repeat(np.arange(lo, hi), self._n_adopted[lo:hi])
        services = self._adopted[self._adopted_starts[lo]:self._adopted_starts[hi]]
        counts = poisson_variates(
            self._count_draws.uniform(child_keys(self._keys[owners], services)),
            config.sessions_per_service,
        )
        # Per-adopter weekly volume: the commune-level expectation is
        # adoption * per-adopter, so divide the per-subscriber figure by
        # the local adoption rate.
        homes = self._homes[owners]
        p_adopt = np.maximum(model.adoption[homes, services].astype(np.float64), 1e-6)
        scale = self._scales[owners] / p_adopt
        weekly_dl = model.per_subscriber_dl[homes, services].astype(np.float64) * scale
        weekly_ul = model.per_subscriber_ul[homes, services].astype(np.float64) * scale
        drawn = (counts > 0) & ~(weekly_dl + weekly_ul <= 0)
        if not drawn.any():
            return None
        counts, owners, services, homes = (
            counts[drawn], owners[drawn], services[drawn], homes[drawn]
        )
        weekly_dl, weekly_ul = weekly_dl[drawn], weekly_ul[drawn]

        # Sessions; each one's ordinal counts its subscriber's sessions
        # before it, whatever the horizon keeps.
        pair = np.repeat(np.arange(len(counts)), counts)
        session_owners = owners[pair]
        first = np.r_[True, session_owners[1:] != session_owners[:-1]]
        starts = np.flatnonzero(first)
        ordinals = np.arange(len(pair)) - starts[np.cumsum(first) - 1]
        keys = child_keys(self._keys[session_owners], ordinals)
        bins = self._time_bins(
            self._home_classes[homes[pair]], services[pair], draws.uniform(keys, 0)
        )
        hours = (bins + draws.uniform(keys, 1)) / model.axis.bins_per_hour
        # Volume jitter, normalised per (subscriber, service).
        jitter = np.exp(
            config.session_volume_sigma
            * normal_variates(draws.uniform(keys, 2), draws.uniform(keys, 3))
        )
        pair_starts = np.cumsum(counts) - counts
        jitter /= np.repeat(np.add.reduceat(jitter, pair_starts), counts)
        keep = hours < horizon
        if not keep.any():
            return None
        keys, hours, pair = keys[keep], hours[keep], pair[keep]
        session_owners = session_owners[keep]
        jitter = jitter[keep]
        n_sessions = len(keys)
        durations = exponential_variates(draws.uniform(keys, 4), 15.0) + 1.0
        n_flows = geometric_variates(
            draws.uniform(keys, 5), 1.0 / config.flows_per_session
        )

        # Long sessions may span a commune change: the mobility model
        # says where the subscriber is at the session's mid-point.
        spanning = durations > config.long_session_minutes
        mid_hours = np.minimum(
            hours[spanning] + durations[spanning] / 120.0, WEEK_HOURS - 1e-6
        )
        itineraries = self._mobility.itineraries_for(
            self._population.subscribers[lo:hi]
        )
        where = locations_at(
            itineraries,
            np.concatenate((session_owners, session_owners[spanning])) - lo,
            np.concatenate((hours, mid_hours)),
        )
        communes, mid_communes = where[:n_sessions], where[n_sessions:]
        moved = mid_communes != communes[spanning]
        spanning[np.flatnonzero(spanning)[~moved]] = False

        # Flows; per-flow volume splits: dirichlet(ones(k)) per session
        # == segment-normalized standard exponentials.
        total_flows = int(n_flows.sum())
        flow_starts = np.cumsum(n_flows) - n_flows
        within = np.arange(total_flows) - np.repeat(flow_starts, n_flows)
        flow_keys = child_keys(np.repeat(keys, n_flows), within)
        raw = exponential_variates(self._flow_draws.uniform(flow_keys))
        splits = raw / np.repeat(np.add.reduceat(raw, flow_starts), n_flows)
        # Probes count whole bytes: integer volumes make every byte sum
        # downstream exact, whatever order it is taken in.
        flow_dl = np.rint(
            np.repeat(weekly_dl[pair] * jitter, n_flows) * splits
        ).astype(np.int64)
        flow_ul = np.rint(
            np.repeat(weekly_ul[pair] * jitter, n_flows) * splits
        ).astype(np.int64)
        timestamps = hours * 3600.0
        flow_services = np.repeat(self._fingerprint_index[services[pair]], n_flows)

        self.sessions_generated += n_sessions
        self.flows_generated += total_flows
        obs.add("generator.sessions", n_sessions)
        obs.add("generator.flows", total_flows)
        return dict(
            owners=session_owners,
            keys=keys,
            communes=communes,
            timestamps=timestamps,
            durations=durations,
            n_flows=n_flows,
            spanning=spanning,
            mid_hours=mid_hours[moved],
            mid_communes=mid_communes[moved],
            flow_keys=flow_keys,
            flow_times=np.repeat(timestamps, n_flows) + 30.0 * within,
            flow_dl=flow_dl,
            flow_ul=flow_ul,
            flow_ids=(flow_keys >> np.uint64(1)).astype(np.int64),
            feature_codes=self._fingerprints.feature_codes(flow_services, flow_keys),
        )

    def _emit_block(self, col: dict) -> None:
        """Emit one drawn block as one bulk round-trip."""
        owners, keys = col["owners"], col["keys"]
        imsi = self._imsi[owners]
        wants_4g = self._wants_4g[owners]
        n_flows, spanning = col["n_flows"], col["spanning"]
        # A spanning session's last flow waits for the session's move.
        last = (np.cumsum(n_flows) - 1)[spanning]
        early = np.ones(len(col["flow_ids"]), dtype=bool)
        early[last] = False
        codebook = self._fingerprints.codebook
        manager = self._session_manager
        created = manager.attach_bulk(
            imsi, col["communes"], wants_4g, col["timestamps"],
            subscribers=1 + int(np.count_nonzero(np.diff(owners))),
            session_keys=keys,
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
            mid_s = col["mid_hours"] * 3600.0
            moved = self._handover.move(
                created.take(spanning),
                col["mid_communes"],
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
            session_keys=keys,
        )
        if self.auditor is not None:
            # Each flow's true commune and ULI cell, in flow order.
            flow_communes = np.repeat(col["communes"], n_flows)
            flow_cells = np.repeat(created.cell_ids, n_flows)
            if len(last):
                flow_communes[last] = col["mid_communes"]
                flow_cells[last] = moved.cell_ids
            self.auditor.record(flow_communes, flow_cells, col["flow_keys"])


__all__ = ["WorkloadConfig", "SessionLevelGenerator"]
