"""Sharded execution of the session-level measurement chain.

Every session-level build runs here: the builder partitions the
population into shards (one, by default), runs one full generator →
probe → DPI → aggregation chain per shard, and reduces the plain
partial states back into one aggregator on the parent.  The chain is
embarrassingly parallel across subscribers: each subscriber's week
touches only their own sessions, and every downstream structure
(aggregation tensors, national counters, per-commune user sets,
DPI/probe accounting) is a sum over subscribers.

Determinism contract: shard RNG streams are spawned by the *parent* from
the builder seed (``spawn(rng, "builder.shard", index=i)``), one per
shard in index order; a one-shard plan draws from the builder's own
stream instead (see :func:`_run_shard`).  Partials are integer sums, so
merging them is exact in any order.  Results are therefore a function
of ``(seed, n_shards)`` only — ``n_workers`` changes wall-clock, never a
single bit of the dataset.

Workers are forked (copy-on-write) so the shared read-only artifacts
(country, intensity model, topology, population) are not pickled;
only the compact :class:`ShardResult` partials travel back.  A single
shard, one worker, or a platform without ``fork`` runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro._rng import spawn
from repro.resilience.faults import (
    drop_fraction_for,
    fire_stage_faults,
    wants_corrupt_result,
)
from repro._time import TimeAxis
from repro.dataset.aggregation import CommuneAggregator
from repro.dpi.classifier import ClassificationReport, DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.geo.country import Country
from repro.network.handover import HandoverStats
from repro.network.localization import LocalizationAuditor
from repro.network.probes import CoreProbe, ProbeStats
from repro.network.topology import NetworkTopology
from repro.services.catalog import ServiceCatalog
from repro.traffic.generator import SessionLevelGenerator, WorkloadConfig
from repro.traffic.intensity import IntensityModel
from repro.traffic.subscribers import Subscriber, SubscriberPopulation


@dataclass
class ShardPlan:
    """Everything a shard worker needs, prepared on the parent."""

    country: Country
    catalog: ServiceCatalog
    model: IntensityModel
    topology: NetworkTopology
    axis: TimeAxis
    workload_config: WorkloadConfig
    unclassifiable_rate: float
    control_loss_rate: float
    shard_subscribers: List[List[Subscriber]]
    shard_rngs: List[np.random.Generator]
    #: Records per streamed probe chunk inside each shard.  Never
    #: changes content — see ``builder.build_session_level_dataset``.
    chunk_size: int = 8192
    #: Attach a localization auditor to the (single) shard's generator.
    audit_localization: bool = False

    @property
    def n_shards(self) -> int:
        return len(self.shard_subscribers)


@dataclass
class ShardResult:
    """One shard's partial state — plain arrays/sets, picklable.

    Carries exactly the attributes
    :meth:`~repro.dataset.aggregation.CommuneAggregator.merge` consumes
    (int64 tensors, and the DPI ``report`` that is the shard's byte
    ledger), plus the generator/probe accounting the builder folds into
    its merged facades.  Worker processes return these instead of live
    aggregator or engine objects, whose indexes and resolved-code
    caches the parent does not need.
    """

    shard_index: int
    dl: np.ndarray
    ul: np.ndarray
    national_dl: np.ndarray
    national_ul: np.ndarray
    records_ingested: int
    users_seen: List[Set[int]]
    report: ClassificationReport
    probe_stats: ProbeStats
    handover_stats: HandoverStats
    sessions_generated: int
    flows_generated: int
    #: Observability snapshot (counters + span tree) captured inside the
    #: shard, or None when the parent ran without observation enabled.
    obs_export: Optional[dict] = None
    #: Probe records lost inside the shard (injected or real outage
    #: windows); surfaced so degraded coverage is accounted, not silent.
    records_dropped: int = 0
    #: The shard's localization auditor when the plan asked for one.
    auditor: Optional[LocalizationAuditor] = None


class MergedGeneratorStats:
    """Read-only stand-in for the generator object in build extras.

    Exposes the counters downstream consumers read
    (``sessions_generated``, ``flows_generated``, ``handover_stats``);
    the live per-shard generators never leave their shards.
    """

    def __init__(
        self,
        sessions_generated: int,
        flows_generated: int,
        handover_stats: HandoverStats,
    ):
        self.sessions_generated = sessions_generated
        self.flows_generated = flows_generated
        self.handover_stats = handover_stats


class MergedProbeStats:
    """Read-only stand-in for the probe object in build extras."""

    def __init__(self, stats: ProbeStats):
        self.stats = stats


def partition_subscribers(
    population: SubscriberPopulation, n_shards: int
) -> List[List[Subscriber]]:
    """Split a population into ``n_shards`` contiguous subscriber blocks."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    slices = np.array_split(np.arange(len(population.subscribers)), n_shards)
    return [
        [population.subscribers[int(j)] for j in idx] for idx in slices
    ]


def run_shard(
    plan: ShardPlan,
    shard_index: int,
    faults: Sequence[Any] = (),
    in_worker: bool = False,
) -> ShardResult:
    """Run the full measurement chain for one shard of subscribers.

    When the parent runs under :func:`repro.obs.observed`, the shard's
    metrics and spans are captured into a private session (fork-safe)
    and travel back on :attr:`ShardResult.obs_export` for the parent to
    absorb in shard-index order.

    ``faults`` is the (normally empty) tuple of
    :class:`repro.resilience.faults.FaultSpec` addressed to this
    attempt; ``in_worker`` tells hang-class faults whether they can
    really block (worker process) or must surface synchronously
    (in-process execution).
    """
    with obs.shard_capture(f"shard[{shard_index}]") as capture:
        result = _run_shard(plan, shard_index, faults, in_worker)
    result.obs_export = capture.export
    return result


def _drop_batch_tail(batch, fraction: float):
    """Drop the trailing ``fraction`` of one probe batch (outage model).

    Deterministic by construction — the kept prefix depends only on the
    batch and the fraction — so an injected-drop scenario reproduces
    exactly.  Returns ``(kept_batch, n_dropped)``.
    """
    n = len(batch)
    keep = n - int(round(n * fraction))
    if keep >= n:
        return batch, 0
    kept = replace(
        batch,
        timestamps_s=batch.timestamps_s[:keep],
        imsi_hashes=batch.imsi_hashes[:keep],
        commune_ids=batch.commune_ids[:keep],
        tech_codes=batch.tech_codes[:keep],
        dl_bytes=batch.dl_bytes[:keep],
        ul_bytes=batch.ul_bytes[:keep],
        flow_ids=batch.flow_ids[:keep],
        feature_codes=batch.feature_codes[:keep],
    )
    return kept, n - keep


def _corrupt_result(result: ShardResult) -> ShardResult:
    """Damage a shard partial the way a torn capture file would."""
    if result.dl.size:
        result.dl.flat[0] = -1
    result.report.bytes_total = -abs(result.report.bytes_total) - 1
    return result


def _run_shard(
    plan: ShardPlan,
    shard_index: int,
    faults: Sequence[Any] = (),
    in_worker: bool = False,
) -> ShardResult:
    fire_stage_faults(faults, "generate", in_worker)
    srng = plan.shard_rngs[shard_index]
    # A one-shard plan's stream is the builder's own generator, drawn
    # under the builder's labels, so one-shard datasets keep the bytes
    # they were pinned at.  Per-subscriber RNG streams (ROADMAP, "Exact,
    # order-free builds") make every shard count draw alike and retire
    # this distinction.
    label = "builder" if plan.n_shards == 1 else "shard"
    aggregator = CommuneAggregator(
        plan.country,
        plan.catalog,
        DpiEngine(FingerprintDatabase(plan.catalog, seed=0)),
        axis=plan.axis,
    )
    subscribers = plan.shard_subscribers[shard_index]
    if not subscribers:
        result = _shard_result(
            shard_index, aggregator, ProbeStats(), HandoverStats(), 0, 0
        )
        return _corrupt_result(result) if wants_corrupt_result(faults) else result
    population = SubscriberPopulation(subscribers, plan.country)
    fingerprints = FingerprintDatabase(
        plan.catalog,
        unclassifiable_rate=plan.unclassifiable_rate,
        seed=spawn(srng, f"{label}.fingerprints"),
    )
    generator = SessionLevelGenerator(
        plan.model,
        population,
        plan.topology,
        fingerprints,
        config=plan.workload_config,
        seed=spawn(srng, f"{label}.generator"),
    )
    probe = CoreProbe(
        control_loss_rate=plan.control_loss_rate,
        seed=spawn(srng, f"{label}.probe"),
    )
    probe.attach_to(generator.session_manager)
    if plan.audit_localization:
        generator.auditor = LocalizationAuditor(
            plan.topology, seed=spawn(srng, f"{label}.auditor")
        )
    drop_fraction = drop_fraction_for(faults)
    records_dropped = 0

    # Each probe chunk folds into the aggregator as soon as it fills, so
    # the shard never materializes its whole week.  The outage-drop
    # fault clips each chunk's tail — deterministic for a fixed chunk
    # size.
    def _ingest(batch) -> None:
        nonlocal records_dropped
        if drop_fraction > 0.0:
            batch, dropped = _drop_batch_tail(batch, drop_fraction)
            records_dropped += dropped
        aggregator.ingest_columnar(batch)

    probe.stream_to(_ingest, chunk_rows=plan.chunk_size)
    generator.run_week(chunk_size=plan.chunk_size)
    fire_stage_faults(faults, "aggregate", in_worker)
    probe.flush_stream()
    result = _shard_result(
        shard_index,
        aggregator,
        probe.stats,
        generator._handover.stats,
        generator.sessions_generated,
        generator.flows_generated,
    )
    result.records_dropped = records_dropped
    result.auditor = generator.auditor
    fire_stage_faults(faults, "result", in_worker)
    return _corrupt_result(result) if wants_corrupt_result(faults) else result


def _shard_result(
    shard_index: int,
    aggregator: CommuneAggregator,
    probe_stats: ProbeStats,
    handover_stats: HandoverStats,
    sessions_generated: int,
    flows_generated: int,
) -> ShardResult:
    return ShardResult(
        shard_index=shard_index,
        dl=aggregator.dl,
        ul=aggregator.ul,
        national_dl=aggregator.national_dl,
        national_ul=aggregator.national_ul,
        records_ingested=aggregator.records_ingested,
        users_seen=aggregator.users_seen,
        report=aggregator.report,
        probe_stats=probe_stats,
        handover_stats=handover_stats,
        sessions_generated=sessions_generated,
        flows_generated=flows_generated,
    )


@dataclass
class WorkerContext:
    """Everything a pool worker needs, delivered via the initializer.

    Under the ``fork`` start method, initializer arguments are
    inherited copy-on-write — the heavy shared artifacts inside the
    plan are never pickled.  ``rng_states`` snapshots every shard
    stream *before* execution so any attempt of shard ``i`` — first
    try, retry, or a re-dispatch on a rebuilt pool — restores the
    identical generator state and reproduces the shard bit-for-bit.
    """

    plan: ShardPlan
    fault_plan: Optional[Any] = None
    rng_states: List[dict] = field(default_factory=list)

    @classmethod
    def for_plan(
        cls, plan: ShardPlan, fault_plan: Optional[Any] = None
    ) -> "WorkerContext":
        return cls(
            plan=plan,
            fault_plan=fault_plan,
            rng_states=[g.bit_generator.state for g in plan.shard_rngs],
        )

    def faults_for(self, shard_index: int, attempt: int) -> Sequence[Any]:
        if self.fault_plan is None:
            return ()
        return self.fault_plan.faults_for(shard_index, attempt)


# Worker-process-only context, installed by the pool initializer inside
# each forked child.  The parent process never assigns it, so plan state
# cannot leak between successive builds or into re-entrant use — the
# supervised executor asserts it stays None on the parent.
_WORKER_CONTEXT: Optional[WorkerContext] = None


def _init_worker(context: WorkerContext) -> None:
    """Pool initializer: install the shard context in this worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def run_shard_attempt(
    context: WorkerContext,
    shard_index: int,
    attempt: int,
    in_worker: bool = False,
) -> ShardResult:
    """One supervised attempt: restore the shard RNG stream, then run.

    Restoring from the pre-execution snapshot makes attempts
    independent: a retry consumes exactly the stream the first try did,
    so a recovered build is bit-identical to an undisturbed one.
    """
    generator = context.plan.shard_rngs[shard_index]
    generator.bit_generator.state = context.rng_states[shard_index]
    return run_shard(
        context.plan,
        shard_index,
        faults=context.faults_for(shard_index, attempt),
        in_worker=in_worker,
    )


def _worker_run_shard(task: tuple) -> ShardResult:
    shard_index, attempt = task
    context = _WORKER_CONTEXT
    assert context is not None, "worker invoked without a shard context"
    return run_shard_attempt(context, shard_index, attempt, in_worker=True)


__all__ = [
    "ShardPlan",
    "ShardResult",
    "MergedGeneratorStats",
    "MergedProbeStats",
    "WorkerContext",
    "partition_subscribers",
    "run_shard",
    "run_shard_attempt",
]
