"""End-to-end dataset builders for both workload resolutions.

``build_volume_level_dataset`` is the fast path used by the figure
benchmarks; ``build_session_level_dataset`` runs the full measurement
chain (subscribers → network → GTP → probe → DPI → aggregation) at a
configurable scale and is what validates the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from repro import obs
from repro._rng import SeedLike, as_generator, spawn
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
from repro.network.probes import CoreProbe, ProbeStats
from repro.network.topology import build_topology
from repro.resilience.coverage import CoverageReport
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.services.catalog import ServiceCatalog, build_catalog
from repro.services.profiles import ProfileLibrary, build_profile_library
from repro.traffic.generator import SessionLevelGenerator, WorkloadConfig
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
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    chunk_size: Optional[int] = 8192,
    spill_dir: Optional[Union[str, Path]] = None,
    spill_budget_bytes: Optional[int] = None,
) -> PipelineArtifacts:
    """Run the full measurement chain at session resolution.

    The returned artifacts include the DPI classification report and, in
    ``extras``, the generator and probe objects for deeper inspection;
    with ``audit_localization=True`` a
    :class:`~repro.network.localization.LocalizationAuditor` measures
    the ULI error of every flow (``extras["auditor"]``).

    ``n_shards`` partitions the subscriber population into independent
    shards, each run through its own generator/probe/DPI chain and
    merged; ``n_workers`` controls how many processes execute them.
    Results depend on ``(seed, n_shards)`` only — for a fixed shard
    count, any worker count produces bit-identical datasets.
    ``n_shards=None`` derives the shard count from ``n_workers``.  With
    more than one shard the ``extras`` carry merged read-only stats
    facades for ``"generator"``/``"probe"`` (plus the per-shard partials
    under ``"shards"``) instead of live objects.

    Sharded builds run under the supervised executor
    (:func:`repro.resilience.supervisor.execute_shards_supervised`):

    - ``retry_policy`` bounds attempts, the per-shard watchdog, and the
      post-exhaustion behavior (default: 3 attempts, fail);
    - ``fault_plan`` injects deterministic faults (tests/CI only);
    - ``checkpoint_dir`` spills completed shard partials to atomic
      checkpoints; ``resume=True`` loads them instead of re-running
      (requires an **integer** ``seed`` so the checkpoint key can bind
      the run configuration).

    Every sharded build stamps ``coverage.*`` keys into
    ``dataset.meta`` and exposes ``extras["coverage"]`` /
    ``extras["execution"]``; a quarantine-degraded build reports
    ``coverage.fraction < 1``.

    **Memory model.** ``chunk_size`` streams the probe's records into
    the aggregator ``chunk_size`` records at a time instead of
    materializing a whole week per pipeline (``None`` restores the
    materializing path).  ``spill_dir`` bounds the *merge* side: shard
    partials beyond ``spill_budget_bytes`` resident bytes (default 0 —
    spill everything) go to disk through a
    :class:`~repro.dataset.merge.SpillStore` and are loaded back one at
    a time during the merge.  Spilling requires an integer ``seed``
    (the store is keyed like a checkpoint).  For a fixed
    ``(seed, n_shards)``, the dataset is bit-identical for **any**
    combination of ``chunk_size``, ``n_workers``, and spill settings —
    these knobs trade memory for time, never content — except under a
    nonzero ``control_loss_rate``, whose probe-side loss draws consume
    the probe RNG in arrival-batch order and therefore depend on how
    emission is chunked.
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
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if checkpoint_dir is not None and not isinstance(seed, int):
        raise ValueError(
            "checkpointing requires an integer seed — the checkpoint "
            "run key must bind the exact build configuration"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1 or None, got {chunk_size}")
    if spill_budget_bytes is not None and spill_dir is None:
        raise ValueError("spill_budget_bytes requires spill_dir")
    if spill_budget_bytes is not None and spill_budget_bytes < 0:
        raise ValueError(
            f"spill_budget_bytes must be >= 0, got {spill_budget_bytes}"
        )
    if spill_dir is not None and not isinstance(seed, int):
        raise ValueError(
            "spilling requires an integer seed — the spill store is "
            "keyed to the exact build configuration"
        )
    resilient = (
        retry_policy is not None
        or fault_plan is not None
        or checkpoint_dir is not None
        or spill_dir is not None
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

    if n_shards > 1 or resilient:
        from repro.resilience.checkpoint import ShardCheckpoint, run_key_for
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
            shard_rngs=[
                spawn(rng, "builder.shard", index=i) for i in range(n_shards)
            ],
            chunk_size=chunk_size,
        )
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = ShardCheckpoint(
                checkpoint_dir,
                run_key_for(seed, n_shards, n_subscribers, n_services),
            )
        spill = None
        if spill_dir is not None:
            spill = SpillStore(
                spill_dir,
                run_key_for(seed, n_shards, n_subscribers, n_services),
                budget_bytes=spill_budget_bytes or 0,
            )
        with obs.span("shards"):
            execution = execute_shards_supervised(
                plan,
                n_workers,
                policy=retry_policy,
                fault_plan=fault_plan,
                checkpoint=checkpoint,
                seed=seed if isinstance(seed, int) else 0,
                resume=resume,
                spill=spill,
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
            subscribers_lost=sum(
                len(plan.shard_subscribers[i]) for i in quarantined
            ),
            records_dropped=execution.records_dropped,
        )
        obs.set_gauge("resilience.coverage_fraction", coverage.fraction)

        engine = DpiEngine(FingerprintDatabase(catalog, seed=0))
        aggregator = CommuneAggregator(country, catalog, engine, axis=axis)
        probe_stats = ProbeStats()
        handover_stats = HandoverStats()
        sessions_generated = 0
        flows_generated = 0
        with obs.span("merge"):
            # Fixed shard order keeps float accumulation deterministic;
            # iter_results pages spilled partials back one at a time, so
            # merge-side RSS is one partial regardless of shard count.
            for result in execution.iter_results():
                aggregator.merge(result)
                engine.report.merge(result.report)
                probe_stats.merge(result.probe_stats)
                handover_stats.merge(result.handover_stats)
                sessions_generated += result.sessions_generated
                flows_generated += result.flows_generated
                obs.add("stream.merge_passes")
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
                "auditor": None,
                "shards": partials,
                "coverage": coverage,
                "execution": execution,
            },
        )

    fingerprints = FingerprintDatabase(
        catalog,
        unclassifiable_rate=unclassifiable_rate,
        seed=spawn(rng, "builder.fingerprints"),
    )
    generator = SessionLevelGenerator(
        model,
        population,
        topology,
        fingerprints,
        config=workload_config,
        seed=spawn(rng, "builder.generator"),
    )
    probe = CoreProbe(
        control_loss_rate=control_loss_rate,
        seed=spawn(rng, "builder.probe"),
        codebook=fingerprints.codebook,
    ).attach_to(generator.session_manager)
    probe.attach_to_bulk(generator.session_manager)
    auditor = None
    if audit_localization:
        from repro.network.localization import LocalizationAuditor

        auditor = LocalizationAuditor(
            topology, seed=spawn(rng, "builder.auditor")
        )
        generator.auditor = auditor

    engine = DpiEngine(FingerprintDatabase(catalog, seed=0))
    aggregator = CommuneAggregator(country, catalog, engine, axis=axis)
    if chunk_size is not None:
        # Streamed: probe chunks fold into the aggregator as the week
        # is generated, so the build never holds the full record store.
        probe.stream_to(aggregator.ingest_columnar, chunk_rows=chunk_size)
        generator.run_week(chunk_size=chunk_size)
        probe.flush_stream()
    else:
        generator.run_week()
        for batch in probe.drain_batches():
            aggregator.ingest_columnar(batch)
    with obs.span("finalize"):
        dataset = aggregator.finalize()
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
            "generator": generator,
            "probe": probe,
            "population": population,
            "topology": topology,
            "aggregator": aggregator,
            "auditor": auditor,
        },
    )


__all__ = [
    "PipelineArtifacts",
    "build_volume_level_dataset",
    "build_session_level_dataset",
]
