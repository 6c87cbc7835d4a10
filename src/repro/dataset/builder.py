"""End-to-end dataset builders for both workload resolutions.

``build_volume_level_dataset`` is the fast path used by the figure
benchmarks; ``build_session_level_dataset`` runs the full measurement
chain (subscribers → network → GTP → probe → DPI → aggregation) at a
configurable scale and is what validates the fast path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from repro import obs
from repro._rng import SeedLike, as_generator, root_key, spawn
from repro._time import TimeAxis
from repro.dataset.aggregation import CommuneAggregator
from repro.dataset.merge import SpillStore
from repro.dataset.parallel import (
    MergedGeneratorStats,
    MergedProbeStats,
    ShardPlan,
    partition_subscribers,
)
from repro.obs import clock
from repro.dataset.store import MobileTrafficDataset
from repro.dpi.classifier import ClassificationReport, DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.geo.country import Country, CountryConfig, build_country
from repro.network.handover import HandoverStats
from repro.network.probes import ProbeStats
from repro.network.topology import build_topology
from repro.resilience.coverage import CoverageReport
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.services.catalog import ServiceCatalog, build_catalog
from repro.services.profiles import ProfileLibrary, build_profile_library
from repro.traffic.generator import WorkloadConfig
from repro.traffic.intensity import IntensityModel, build_intensity_model
from repro.traffic.subscribers import synthesize_population
from repro.traffic.volume_model import VolumeModelConfig, synthesize_volume_dataset


@dataclass
class PipelineArtifacts:
    """Everything a builder created, for callers who need the internals."""

    country: Country
    catalog: ServiceCatalog
    profiles: ProfileLibrary
    model: IntensityModel
    dataset: MobileTrafficDataset
    dpi_report: Optional[ClassificationReport] = None
    extras: dict = field(default_factory=dict)


def build_volume_level_dataset(
    country: Optional[Country] = None,
    country_config: Optional[CountryConfig] = None,
    axis: TimeAxis = TimeAxis(1),
    total_weekly_bytes: Optional[float] = None,
    volume_config: Optional[VolumeModelConfig] = None,
    n_services: int = 520,
    seed: SeedLike = None,
) -> PipelineArtifacts:
    """Build a nationwide-scale dataset with the closed-form volume model."""
    if country_config is None:
        country_config = CountryConfig()
    if volume_config is None:
        volume_config = VolumeModelConfig()
    rng = as_generator(seed)
    if country is None:
        with obs.span("country"):
            country = build_country(
                country_config, seed=spawn(rng, "builder.country")
            )
    catalog = build_catalog(n_services=n_services)
    profiles = build_profile_library()
    with obs.span("intensity"):
        model = build_intensity_model(
            country,
            catalog,
            profiles,
            axis=axis,
            total_weekly_bytes=total_weekly_bytes,
            seed=spawn(rng, "builder.intensity"),
        )
    with obs.span("volume_model"):
        dataset = synthesize_volume_dataset(
            model, config=volume_config, seed=spawn(rng, "builder.volume")
        )
    obs.add("builder.volume_datasets")
    return PipelineArtifacts(
        country=country,
        catalog=catalog,
        profiles=profiles,
        model=model,
        dataset=dataset,
    )


def build_session_level_dataset(
    n_subscribers: int = 2_000,
    country: Optional[Country] = None,
    country_config: Optional[CountryConfig] = None,
    axis: TimeAxis = TimeAxis(1),
    total_weekly_bytes: Optional[float] = None,
    workload_config: Optional[WorkloadConfig] = None,
    n_services: int = 60,
    unclassifiable_rate: float = 0.12,
    control_loss_rate: float = 0.0,
    audit_localization: bool = False,
    n_workers: int = 1,
    n_shards: Optional[int] = None,
    seed: SeedLike = None,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = False,
    chunk_size: int = 8192,
    spill_dir: Optional[Union[str, Path]] = None,
    spill_budget_bytes: Optional[int] = None,
) -> PipelineArtifacts:
    """Run the full measurement chain at session resolution.

    ``n_shards`` partitions the subscriber population into independent
    shards, each run through its own generator/probe/DPI chain
    (:func:`repro.dataset.parallel.run_shard`) and merged; every build
    takes this path, one shard included.  ``n_workers`` controls how
    many processes execute the shards (one shard, or one worker, runs
    in-process).  ``n_shards=None`` derives the shard count from
    ``n_workers``.  Results depend on the seed only: every draw of the
    chain is keyed by the subscriber, session or flow it is for (see
    :mod:`repro._rng`), so the shard count, the worker count, the chunk
    size, retries and spilling never change a bit of the dataset.

    The returned artifacts include the DPI classification report — the
    build's one byte ledger, kept in exact integer bytes;
    ``dataset.classified_fraction`` is its ``byte_coverage`` — and, in
    ``extras``, merged read-only stats facades for
    ``"generator"``/``"probe"``, the merged ``"aggregator"`` and the
    per-shard partials under ``"shards"``.  With
    ``audit_localization=True`` (one shard only) a
    :class:`~repro.network.localization.LocalizationAuditor` measures
    the ULI error of every flow (``extras["auditor"]``).

    Shards run under the supervised executor
    (:func:`repro.resilience.supervisor.execute_shards_supervised`):

    - ``retry_policy`` bounds attempts, the per-shard watchdog, and the
      post-exhaustion behavior (default: 3 attempts, fail);
    - ``fault_plan`` injects deterministic faults (tests/CI only).

    Every build stamps ``coverage.*`` keys into ``dataset.meta`` and
    exposes ``extras["coverage"]`` / ``extras["execution"]``; a
    quarantine-degraded build reports ``coverage.fraction < 1``.

    **Partial store.** With ``spill_dir`` set, every accepted shard
    partial is written there once, atomically, through a
    :class:`~repro.dataset.merge.SpillStore`.  ``resume=True`` loads
    the valid files already there instead of re-running their shards.
    The files are keyed by every input that shapes a shard, so the
    store needs an integer ``seed`` and a ``country_config`` rather
    than a prebuilt ``country``; a file from another configuration is
    discarded and its shard reruns.

    **Memory model.** ``chunk_size`` (a positive record count) streams
    the probe's records into each shard's aggregator ``chunk_size``
    records at a time, so no shard materializes its whole week.
    ``spill_budget_bytes`` bounds the *merge* side: stored partials
    beyond that many resident bytes (default 0 — keep none loaded) are
    held as handles on their files and loaded back one at a time during
    the merge, which folds them into the first partial.  These knobs
    trade memory for time, never content: probe-side capture losses
    under a nonzero ``control_loss_rate`` are keyed by session too.
    """
    if country_config is None:
        country_config = CountryConfig(n_communes=400)
    if workload_config is None:
        workload_config = WorkloadConfig()
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_shards is None:
        n_shards = n_workers if n_workers > 1 else 1
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if audit_localization and n_shards > 1:
        raise ValueError("audit_localization requires n_shards=1")
    if resume and spill_dir is None:
        raise ValueError("resume=True requires spill_dir")
    if chunk_size is None or chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if spill_budget_bytes is not None and spill_dir is None:
        raise ValueError("spill_budget_bytes requires spill_dir")
    if spill_budget_bytes is not None and spill_budget_bytes < 0:
        raise ValueError(
            f"spill_budget_bytes must be >= 0, got {spill_budget_bytes}"
        )
    if spill_dir is not None and not isinstance(seed, int):
        raise ValueError(
            "spill_dir requires an integer seed — the partial store is "
            "keyed to the exact build configuration"
        )
    if spill_dir is not None and country is not None:
        raise ValueError(
            "spill_dir requires country_config, not a prebuilt country — "
            "the partial store's key cannot bind a country's content"
        )
    rng = as_generator(seed)
    if country is None:
        with obs.span("country"):
            country = build_country(
                country_config, seed=spawn(rng, "builder.country")
            )
    catalog = build_catalog(n_services=n_services)
    profiles = build_profile_library()
    with obs.span("intensity"):
        model = build_intensity_model(
            country,
            catalog,
            profiles,
            axis=axis,
            total_weekly_bytes=total_weekly_bytes,
            seed=spawn(rng, "builder.intensity"),
        )
    with obs.span("topology"):
        topology = build_topology(country, seed=spawn(rng, "builder.topology"))
    with obs.span("population"):
        population = synthesize_population(
            country, model, n_subscribers, seed=spawn(rng, "builder.population")
        )

    # Looked up at call time: perfbench traces the executor by patching
    # the supervisor module's attribute.
    from repro.resilience.supervisor import execute_shards_supervised

    plan = ShardPlan(
        country=country,
        catalog=catalog,
        model=model,
        topology=topology,
        axis=axis,
        workload_config=workload_config,
        unclassifiable_rate=unclassifiable_rate,
        control_loss_rate=control_loss_rate,
        shard_subscribers=partition_subscribers(population, n_shards),
        root_key=root_key(spawn(rng, "builder.draws")),
        chunk_size=chunk_size,
        audit_localization=audit_localization,
    )
    store = None
    if spill_dir is not None:
        run_key = _run_key(
            seed,
            n_shards,
            n_subscribers=n_subscribers,
            n_services=n_services,
            country_config=country_config,
            axis=axis,
            total_weekly_bytes=total_weekly_bytes,
            workload_config=workload_config,
            unclassifiable_rate=unclassifiable_rate,
            control_loss_rate=control_loss_rate,
            audit_localization=audit_localization,
        )
        store = SpillStore(
            spill_dir, run_key, budget_bytes=spill_budget_bytes or 0
        )
    with obs.span("shards"):
        execution = execute_shards_supervised(
            plan,
            n_workers,
            policy=retry_policy,
            fault_plan=fault_plan,
            seed=seed if isinstance(seed, int) else 0,
            resume=resume,
            store=store,
        )
        # Handles keep their obs export resident, so absorbing the
        # shard observability never pages a spilled partial back in.
        partials = execution.partials
        for partial in partials:  # index order: counters merge exactly
            if partial.obs_export is not None:
                obs.absorb_shard(partial.obs_export)
                obs.add("shard.results_merged")
    obs.add("shard.fan_out", n_shards)

    quarantined = execution.quarantined_indices
    coverage = CoverageReport(
        n_shards=n_shards,
        quarantined=quarantined,
        subscribers_total=len(population.subscribers),
        subscribers_lost=sum(len(plan.shard_subscribers[i]) for i in quarantined),
        records_dropped=execution.records_dropped,
    )
    obs.set_gauge("resilience.coverage_fraction", coverage.fraction)

    engine = DpiEngine(FingerprintDatabase(catalog, seed=0))
    aggregator = None
    auditor = None
    probe_stats = ProbeStats()
    handover_stats = HandoverStats()
    sessions_generated = 0
    flows_generated = 0
    with obs.span("merge"):
        # iter_results pages spilled partials back one at a time, so
        # merge-side RSS is one partial regardless of shard count.  The
        # first partial becomes the merge target, so its arrays end up
        # holding the merged totals; the aggregator folds each partial's
        # DPI report into ``engine.report``, the build's byte ledger.
        for result in execution.iter_results():
            if aggregator is None:
                aggregator = CommuneAggregator(
                    country, catalog, engine, axis=axis, partial=result
                )
            else:
                aggregator.merge(result)
            probe_stats.merge(result.probe_stats)
            handover_stats.merge(result.handover_stats)
            sessions_generated += result.sessions_generated
            flows_generated += result.flows_generated
            if result.auditor is not None:
                auditor = result.auditor
            obs.add("stream.merge_passes")
    if aggregator is None:  # every shard quarantined
        aggregator = CommuneAggregator(country, catalog, engine, axis=axis)
    with obs.span("finalize"):
        dataset = aggregator.finalize()
    dataset.meta.update(coverage.meta())
    obs.add("builder.session_datasets")
    obs.set_gauge("build.peak_rss_bytes", float(clock.peak_rss_bytes()))
    return PipelineArtifacts(
        country=country,
        catalog=catalog,
        profiles=profiles,
        model=model,
        dataset=dataset,
        dpi_report=engine.report,
        extras={
            "generator": MergedGeneratorStats(
                sessions_generated, flows_generated, handover_stats
            ),
            "probe": MergedProbeStats(probe_stats),
            "population": population,
            "topology": topology,
            "aggregator": aggregator,
            "auditor": auditor,
            "shards": partials,
            "coverage": coverage,
            "execution": execution,
        },
    )


def _run_key(seed: int, n_shards: int, **inputs) -> str:
    """The partial store's run key: every input that shapes a shard.

    ``chunk_size`` and ``n_workers`` never change a partial, and the
    retry policy and fault plan only decide which attempt settles, so
    they stay out.  Config dataclasses enter through their ``repr``,
    which lists every field.
    """
    digest = hashlib.sha256(repr(sorted(inputs.items())).encode()).hexdigest()
    return f"session/seed={seed}/shards={n_shards}/inputs={digest[:16]}"


__all__ = [
    "PipelineArtifacts",
    "build_volume_level_dataset",
    "build_session_level_dataset",
]
