"""Performance: throughput of the session-level measurement chain.

Not a paper figure — the systems-level benchmark a user sizing a larger
simulation needs: how many sessions/flows per second the full chain
(generation → GTP → probe → DPI → aggregation) sustains.

The shared artifacts (country, intensity model, topology, population)
are built once; two chain legs then run over the same workload in the
same process:

- **optimized** — the single-process chain: batched generation, bulk
  GTP, indexed+memoized DPI, ``np.add.at`` aggregation;
- **sharded** — the same chain split across shards/workers through
  the same plan the builder's ``n_workers`` uses.

Both throughputs land in ``BENCH_perf_pipeline.json``.

A third leg runs the same workload through the end-to-end builder
three times — dark, observed, and observed with the structured event
log — to emit the per-stage span breakdown, to bound the cost of the
*disabled* observability path (a global load plus a ``None`` check per
call site; asserted below ``MAX_DISABLED_OVERHEAD``), and to bound the
cost of event logging relative to plain observation (asserted below
``MAX_EVENT_LOG_OVERHEAD``).

A fourth leg runs the fidelity scorecard over a pre-computed experiment
sweep to record what the scoring engine itself costs on top of the
experiments it grades (``fidelity`` section of the JSON artifact).

A fifth leg reruns the sharded workload under the supervised executor
(``repro.resilience``) with no faults injected, and bounds the
supervision surcharge — attempt bookkeeping, result validation, the
watchdog poll loop — below ``MAX_SUPERVISED_OVERHEAD`` of the bare
``execute_shards`` pool (min-of-two runs each, to damp wall-clock
noise).

A seventh leg times the repository's own static analyzer over the
full tree — the per-file rules plus the whole-program pass
(``repro.lint.program``), single-threaded — and asserts it stays
below ``MAX_LINT_ELAPSED`` so the lint CI gate never becomes the slow
step (``lint`` section of the JSON artifact).

An eighth leg benchmarks the serving layer (``repro.serve``): a
volume-level dataset is indexed once, a Poisson schedule is generated,
and the open-loop load harness measures query latency percentiles,
throughput, cache hit rate, and the saturation point (``serve``
section of the JSON artifact — the numbers ``docs/serving.md`` and the
README quote).  The same schedule is then replayed fully telemetered —
observed session, structured event log, ``TRACE_SAMPLE_RATE`` request
tracing — and the surcharge over the dark run is asserted below
``MAX_TELEMETRY_OVERHEAD``.

The JSON artifact is stamped the way the performance-regression
observatory stamps its records (:mod:`repro.bench.history`): schema
version, git SHA, and the fingerprint of the workload config.  A
matching record — the gated indicators of
:data:`repro.bench.contract.GATES`, including the overload pair
(goodput and admitted-p99 at 2× the measured saturation) — is appended
to
``benchmarks/history.jsonl`` so ``repro-bench diff``/``gate`` can
compare perf-pipeline runs across commits.

A sixth leg climbs the scale ladder (10³, 10⁴, 10⁵, 10⁶ subscribers)
through the streamed builder — fixed chunk size, every shard partial
spilled to disk — recording records/s and peak RSS per rung
(``scale_ladder`` section of the JSON artifact).  Two bounds are
asserted: the 10⁶ rung's peak RSS stays below ``MAX_RSS_AT_1M`` (the
out-of-core contract: memory is a function of chunk/spill sizing, not
of subscriber count), and at the 10³ rung the streamed path costs at
most ``MAX_STREAMING_REGRESSION``x the in-memory path it replaced.
"""

import gc
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro._rng import spawn
from repro.obs import clock
from repro._time import TimeAxis
from repro.dataset.aggregation import CommuneAggregator
from repro.dataset.builder import build_session_level_dataset
from repro.dataset.parallel import (
    ShardPlan,
    execute_shards,
    partition_subscribers,
)
from repro.dpi.classifier import DpiEngine
from repro.dpi.fingerprints import FingerprintDatabase
from repro.geo.country import CountryConfig, build_country
from repro.network.probes import CoreProbe
from repro.network.topology import build_topology
from repro.services.catalog import build_catalog
from repro.services.profiles import build_profile_library
from repro.traffic.generator import SessionLevelGenerator, WorkloadConfig
from repro.traffic.intensity import build_intensity_model
from repro.traffic.subscribers import synthesize_population

N_SUBSCRIBERS = 1_000
N_COMMUNES = 144
N_WORKERS = 2
MAX_DISABLED_OVERHEAD = 0.02
MAX_EVENT_LOG_OVERHEAD = 0.03
MAX_SUPERVISED_OVERHEAD = 0.03
MAX_TELEMETRY_OVERHEAD = 0.03
TRACE_SAMPLE_RATE = 0.05
LADDER_RUNGS = [1_000, 10_000, 100_000, 1_000_000]
LADDER_SHARDS = 8
LADDER_CHUNK = 8192
MAX_RSS_AT_1M = 2 * 1024**3  # the out-of-core headline: 10^6 under 2 GiB
MAX_STREAMING_REGRESSION = 1.25  # streamed vs in-memory at the 10^3 rung
MAX_LINT_ELAPSED = 10.0  # full-tree static analysis, single-threaded
BENCH_JSON = Path(__file__).parent / "BENCH_perf_pipeline.json"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _shared_artifacts(seed: int = 77) -> dict:
    rng = np.random.default_rng(seed)
    country = build_country(
        CountryConfig(n_communes=N_COMMUNES), seed=spawn(rng, "bench.country")
    )
    catalog = build_catalog(n_services=60)
    profiles = build_profile_library()
    model = build_intensity_model(
        country, catalog, profiles, seed=spawn(rng, "bench.intensity")
    )
    topology = build_topology(country, seed=spawn(rng, "bench.topology"))
    population = synthesize_population(
        country, model, N_SUBSCRIBERS, seed=spawn(rng, "bench.population")
    )
    return {
        "country": country,
        "catalog": catalog,
        "model": model,
        "topology": topology,
        "population": population,
    }


def _run_chain(shared: dict) -> dict:
    """One generation → probe → DPI → aggregation leg, timed."""
    fingerprints = FingerprintDatabase(shared["catalog"], seed=1)
    generator = SessionLevelGenerator(
        shared["model"],
        shared["population"],
        shared["topology"],
        fingerprints,
        seed=2,
    )
    probe = CoreProbe(seed=3, codebook=fingerprints.codebook)
    probe.attach_to(generator.session_manager)

    start = time.perf_counter()
    generator.run_week()
    engine = DpiEngine(FingerprintDatabase(shared["catalog"], seed=0))
    aggregator = CommuneAggregator(
        shared["country"], shared["catalog"], engine, axis=TimeAxis(1)
    )
    for batch in probe.drain_batches():
        aggregator.ingest_columnar(batch)
    elapsed = time.perf_counter() - start
    return _leg_stats(
        elapsed,
        generator.sessions_generated,
        generator.flows_generated,
        aggregator.records_ingested,
        n_workers=1,
    )


def _run_sharded(shared: dict, n_workers: int, supervised: bool = False) -> dict:
    rng = np.random.default_rng(9)
    plan = ShardPlan(
        country=shared["country"],
        catalog=shared["catalog"],
        model=shared["model"],
        topology=shared["topology"],
        axis=TimeAxis(1),
        workload_config=WorkloadConfig(),
        unclassifiable_rate=0.12,
        control_loss_rate=0.0,
        shard_subscribers=partition_subscribers(shared["population"], n_workers),
        shard_rngs=[
            spawn(rng, "builder.shard", index=i) for i in range(n_workers)
        ],
    )
    engine = DpiEngine(FingerprintDatabase(shared["catalog"], seed=0))
    aggregator = CommuneAggregator(
        shared["country"], shared["catalog"], engine, axis=TimeAxis(1)
    )
    start = time.perf_counter()
    if supervised:
        from repro.resilience import execute_shards_supervised

        results = execute_shards_supervised(plan, n_workers, seed=9).results
    else:
        results = execute_shards(plan, n_workers)
    sessions = flows = 0
    for result in results:
        aggregator.merge(result)
        sessions += result.sessions_generated
        flows += result.flows_generated
    elapsed = time.perf_counter() - start
    return _leg_stats(
        elapsed, sessions, flows, aggregator.records_ingested, n_workers=n_workers
    )


def _run_observability(shared: dict) -> dict:
    """Observed vs dark builder run, plus the disabled-path cost bound.

    The overhead of running *without* observation cannot be timed
    directly (it is lost in run-to-run noise), so it is bounded
    arithmetically: (instrumentation call sites hit during the observed
    run) × (measured cost of one disabled call) ÷ (dark elapsed).
    """
    kwargs = dict(
        n_subscribers=N_SUBSCRIBERS,
        country=shared["country"],
        seed=5,
        n_shards=N_WORKERS,
    )

    start = time.perf_counter()
    build_session_level_dataset(**kwargs)
    disabled_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    with obs.observed() as session:
        build_session_level_dataset(**kwargs)
    enabled_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    with obs.observed(log_events=True) as logged_session:
        build_session_level_dataset(**kwargs)
    logged_elapsed = time.perf_counter() - start
    n_logged_events = len(logged_session.export_events())

    # The event-log surcharge is far below run-to-run wall-clock noise
    # (~13k list appends in a ~1 s build), so — like the disabled-path
    # bound below — it is bounded arithmetically: the measured extra
    # cost of one *logged* instrumentation call times the events the
    # logged run recorded, relative to the plain observed elapsed.
    reps = 50_000
    with obs.observed():
        start = time.perf_counter()
        for _ in range(reps):
            obs.add("generator.flows")
        plain_call_cost_s = (time.perf_counter() - start) / reps
    with obs.observed(log_events=True):
        start = time.perf_counter()
        for _ in range(reps):
            obs.add("generator.flows")
        logged_call_cost_s = (time.perf_counter() - start) / reps
    event_log_overhead = (
        n_logged_events
        * max(0.0, logged_call_cost_s - plain_call_cost_s)
        / enabled_elapsed
    )

    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        obs.add("generator.flows")  # disabled: global load + None check
    noop_call_cost_s = (time.perf_counter() - start) / reps

    overhead = session.api_events * noop_call_cost_s / disabled_elapsed
    return {
        "disabled_elapsed_s": disabled_elapsed,
        "enabled_elapsed_s": enabled_elapsed,
        "event_log_elapsed_s": logged_elapsed,
        "event_log_events": n_logged_events,
        "event_log_call_cost_ns": logged_call_cost_s * 1e9,
        "event_log_overhead_fraction": event_log_overhead,
        "api_events": session.api_events,
        "noop_call_cost_ns": noop_call_cost_s * 1e9,
        "disabled_overhead_fraction": overhead,
        "counters": session.registry.export_counters(),
        "gauges": session.registry.export_gauges(),
        "stages": obs.flatten(session.root),
    }


def _run_fidelity() -> dict:
    """Experiment sweep once, then the scorecard engine over it, timed.

    Scoring reuses the sweep through ``results=`` injection, so the
    second timing is the pure cost of the fidelity layer — extraction,
    band evaluation, verdict bookkeeping — on top of the experiments it
    grades.
    """
    from repro.experiments import build_default_context, run_figure
    from repro.fidelity import FINDINGS, run_scorecard

    experiment_ids = []
    for spec in FINDINGS.values():
        if spec.experiment_id not in experiment_ids:
            experiment_ids.append(spec.experiment_id)

    start = time.perf_counter()
    ctx = build_default_context(seed=7, n_communes=N_COMMUNES)
    results = {eid: run_figure(eid, ctx) for eid in experiment_ids}
    experiments_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    card = run_scorecard(seed=7, n_communes=N_COMMUNES, results=results)
    scoring_elapsed = time.perf_counter() - start
    return {
        "n_communes": N_COMMUNES,
        "n_findings": card["summary"]["total"],
        "experiments_elapsed_s": experiments_elapsed,
        "scoring_elapsed_s": scoring_elapsed,
        "scoring_overhead_fraction": scoring_elapsed / experiments_elapsed,
    }


def _run_resilience(shared: dict) -> dict:
    """Supervised vs bare shard executor on the identical fault-free plan.

    Two interleaved runs per executor; the minimum elapsed of each damps
    scheduler noise, so the reported overhead is the supervision
    machinery itself (attempt bookkeeping, partial validation, the
    ``POLL_S`` result poll), not run-to-run variance.
    """
    bare_s = min(
        _run_sharded(shared, n_workers=N_WORKERS)["elapsed_s"]
        for _ in range(2)
    )
    supervised_s = min(
        _run_sharded(shared, n_workers=N_WORKERS, supervised=True)["elapsed_s"]
        for _ in range(2)
    )
    return {
        "bare_elapsed_s": bare_s,
        "supervised_elapsed_s": supervised_s,
        "overhead_fraction": supervised_s / bare_s - 1.0,
    }


def _ladder_build(n_subscribers: int, chunk_size, spill_dir=None) -> dict:
    """One end-to-end builder run at ladder settings, timed."""
    kwargs = {}
    if spill_dir is not None:
        # Budget 0 spills every shard partial: the rung exercises the
        # full out-of-core surface, not just chunked ingest.
        kwargs.update(spill_dir=spill_dir, spill_budget_bytes=0)
    start = time.perf_counter()
    artifacts = build_session_level_dataset(
        n_subscribers=n_subscribers,
        seed=7,
        n_shards=LADDER_SHARDS,
        chunk_size=chunk_size,
        **kwargs,
    )
    elapsed = time.perf_counter() - start
    stats = artifacts.extras["generator"]
    # Every generated flow lands in the aggregator exactly once
    # (asserted by tests/integration/test_obs_pipeline.py), so flows
    # *are* the records-ingested count without an observed session.
    return _leg_stats(
        elapsed,
        stats.sessions_generated,
        stats.flows_generated,
        stats.flows_generated,
        n_workers=1,
    )


def _run_scale_ladder() -> dict:
    """Streamed builds up the subscriber ladder, RSS-accounted per rung.

    ``ru_maxrss`` is a monotone process-lifetime high-water mark, so
    each rung's reading is the max over every build so far — running
    the rungs in ascending order makes the top rung's reading its own
    true peak, and every assertion below only ever uses readings as an
    *upper* bound on the rung that produced them.
    """
    # One throwaway build absorbs first-call costs (imports, cached
    # artifact construction) so the smallest rung is not billed for them.
    _ladder_build(100, LADDER_CHUNK)
    rungs = []
    with tempfile.TemporaryDirectory(prefix="bench-ladder-") as spill_root:
        for n_subscribers in LADDER_RUNGS:
            gc.collect()
            leg = _ladder_build(
                n_subscribers,
                LADDER_CHUNK,
                spill_dir=Path(spill_root) / str(n_subscribers),
            )
            leg["n_subscribers"] = n_subscribers
            leg["chunk_size"] = LADDER_CHUNK
            leg["peak_rss_bytes"] = clock.peak_rss_bytes()
            rungs.append(leg)
            print(
                f"ladder   : {n_subscribers:>9,} subscribers  "
                f"{leg['records_per_s']:>10,.0f} records/s  "
                f"({leg['elapsed_s']:.1f} s, peak RSS "
                f"{leg['peak_rss_bytes'] / 2**20:,.0f} MiB)"
            )
    # The streaming surcharge where it is most visible: at the smallest
    # rung fixed costs dominate, so chunked emission + spill have the
    # least work to amortize over.  Min-of-two damps wall-clock noise.
    small = LADDER_RUNGS[0]
    streamed_s = min(
        rungs[0]["elapsed_s"], _ladder_build(small, LADDER_CHUNK)["elapsed_s"]
    )
    in_memory_s = min(
        _ladder_build(small, None)["elapsed_s"] for _ in range(2)
    )
    return {
        "chunk_size": LADDER_CHUNK,
        "n_shards": LADDER_SHARDS,
        "rungs": rungs,
        "streaming_regression": {
            "n_subscribers": small,
            "streamed_elapsed_s": streamed_s,
            "in_memory_elapsed_s": in_memory_s,
            "ratio": streamed_s / in_memory_s,
        },
    }


def _run_lint() -> dict:
    """Full-tree static analysis, single-threaded, timed.

    Both passes over the real repository: the per-file rules on
    ``src/`` + ``tests/`` and the whole-program pass (import graph,
    taint, contract cross-checks) on ``src/repro``
    (docs/static-analysis.md).
    """
    from repro.lint.engine import LintEngine
    from repro.lint.program import ProgramAnalyzer, ProgramIndex

    start = time.perf_counter()
    findings = LintEngine().lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
    )
    per_file_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    index = ProgramIndex.from_root(REPO_ROOT)
    program_findings = ProgramAnalyzer(index).run()
    program_elapsed = time.perf_counter() - start
    return {
        "n_modules": len(index.modules),
        "per_file_elapsed_s": per_file_elapsed,
        "program_elapsed_s": program_elapsed,
        "elapsed_s": per_file_elapsed + program_elapsed,
        "findings": len(findings) + len(program_findings),
    }


def _run_serve(shared: dict) -> dict:
    """Index a dataset, then drive it with the open-loop load harness.

    One build of the volume-level cube over the shared country, one
    :class:`~repro.serve.engine.ServeEngine` indexing pass, one Poisson
    schedule, one harness run — the latency/throughput/saturation
    figures land in the ``serve`` section of the JSON artifact.
    """
    from repro.dataset.builder import build_volume_level_dataset
    from repro.serve import ServeEngine, generate_schedule, run_load
    from repro.serve.queries import CubeProfile
    from repro.serve.workload import WorkloadSpec

    dataset = build_volume_level_dataset(
        country=shared["country"], seed=13
    ).dataset

    start = time.perf_counter()
    engine = ServeEngine(dataset)
    index_elapsed = time.perf_counter() - start

    spec = WorkloadSpec(
        duration_s=30.0,
        mean_active_users=200.0,
        mean_requests_per_minute_per_user=60.0,
        user_sampling_window_s=5.0,
    )
    requests = generate_schedule(spec, CubeProfile.of(dataset), seed=13)

    start = time.perf_counter()
    report = run_load(engine, requests)
    harness_elapsed = time.perf_counter() - start

    # Telemetry surcharge: the identical schedule replayed dark vs
    # fully telemetered (observed session + structured event log +
    # sampled request tracing).  Min-of-two per mode damps wall-clock
    # noise, mirroring the resilience leg.
    def _dark() -> float:
        start = time.perf_counter()
        run_load(engine, requests)
        return time.perf_counter() - start

    def _telemetered() -> float:
        traced = ServeEngine(
            dataset, trace_seed=13, trace_sample_rate=TRACE_SAMPLE_RATE
        )
        start = time.perf_counter()
        with obs.observed(log_events=True):
            run_load(traced, requests)
        return time.perf_counter() - start

    dark_s = min(harness_elapsed, _dark())
    telemetered_s = min(_telemetered() for _ in range(2))

    leg = report.to_dict()
    leg.update(
        n_communes=dataset.n_communes,
        n_head=dataset.n_head,
        index_build_s=index_elapsed,
        harness_elapsed_s=harness_elapsed,
        dark_elapsed_s=dark_s,
        telemetered_elapsed_s=telemetered_s,
        trace_sample_rate=TRACE_SAMPLE_RATE,
        telemetry_overhead_fraction=telemetered_s / dark_s - 1.0,
    )
    return leg


def _run_overload(shared: dict) -> dict:
    """Drive the serving engine at 1x/2x/4x its measured saturation.

    The overload contract (``docs/robustness.md``): every request
    carries a deadline, admission control is sized to the measured
    saturation rate, and the 2x probe's goodput / shed rate /
    admitted-p99 are the headline (and gated) figures.
    """
    from dataclasses import replace

    from repro.dataset.builder import build_volume_level_dataset
    from repro.serve import (
        OverloadPolicy,
        ServeEngine,
        generate_schedule,
        run_load,
    )
    from repro.serve.queries import CubeProfile
    from repro.serve.workload import WorkloadSpec

    dataset = build_volume_level_dataset(
        country=shared["country"], seed=13
    ).dataset
    engine = ServeEngine(dataset)
    spec = WorkloadSpec(
        duration_s=30.0,
        mean_active_users=200.0,
        mean_requests_per_minute_per_user=60.0,
        user_sampling_window_s=5.0,
        interactive_deadline_ms=50.0,
        batch_deadline_ms=250.0,
    )
    requests = generate_schedule(spec, CubeProfile.of(dataset), seed=13)

    baseline = run_load(engine, requests)
    saturation = baseline.saturation_rps or baseline.offered_rps or 1.0
    offered = baseline.offered_rps or 1.0
    policy = OverloadPolicy(seed=13, tokens_per_s=max(saturation, 1.0))

    start = time.perf_counter()
    probes = {}
    for multiplier in (1, 2, 4):
        factor = offered / (multiplier * saturation)
        scaled = [
            replace(
                request,
                arrival_offset_ms=request.arrival_offset_ms * factor,
            )
            for request in requests
        ]
        section = run_load(engine, scaled, overload=policy).overload
        probes[f"{multiplier}x"] = {
            "offered_rps": multiplier * saturation,
            "goodput_rps": section["goodput_rps"],
            "shed_rate": section["shed_rate"],
            "n_admitted": section["n_admitted"],
            "n_deadline_exceeded": section["n_deadline_exceeded"],
            "admitted_p99_s": section["admitted_p99_s"],
            "health": section["health"]["state"],
        }
    elapsed = time.perf_counter() - start
    headline = probes["2x"]
    return {
        "n_requests": baseline.n_requests,
        "saturation_rps": saturation,
        "harness_elapsed_s": elapsed,
        "at": probes,
        "goodput_rps": headline["goodput_rps"],
        "shed_rate": headline["shed_rate"],
        "admitted_p99_s": headline["admitted_p99_s"],
    }


def _leg_stats(
    elapsed: float, sessions: int, flows: int, records: int, n_workers: int
) -> dict:
    return {
        "elapsed_s": elapsed,
        "sessions": sessions,
        "flows": flows,
        "records": records,
        "sessions_per_s": sessions / elapsed,
        "flows_per_s": flows / elapsed,
        "records_per_s": records / elapsed,
        "n_workers": n_workers,
    }


def test_perf_session_pipeline(benchmark):
    shared = _shared_artifacts()

    optimized_holder = {}

    def run_optimized():
        optimized_holder["leg"] = _run_chain(shared)

    benchmark.pedantic(run_optimized, rounds=1, iterations=1)
    optimized = optimized_holder["leg"]
    sharded = _run_sharded(shared, n_workers=N_WORKERS)
    observability = _run_observability(shared)
    fidelity = _run_fidelity()
    resilience = _run_resilience(shared)
    lint = _run_lint()
    serve = _run_serve(shared)
    overload = _run_overload(shared)

    print()
    for label, leg in (
        ("optimized", optimized),
        ("sharded  ", sharded),
    ):
        print(
            f"{label}: {leg['sessions_per_s']:>10,.0f} sessions/s  "
            f"{leg['flows_per_s']:>10,.0f} flows/s  "
            f"{leg['records_per_s']:>10,.0f} records/s  "
            f"({leg['elapsed_s']:.2f} s, {leg['n_workers']} worker(s))"
        )
    print(
        f"obs      : {observability['api_events']} instrumentation events, "
        f"disabled overhead ≤ "
        f"{100 * observability['disabled_overhead_fraction']:.4f}% of a "
        f"{observability['disabled_elapsed_s']:.2f} s dark build"
    )
    print(
        f"event log: {observability['event_log_events']} events, "
        f"{100 * observability['event_log_overhead_fraction']:.2f}% over "
        f"plain observation"
    )
    print(
        f"fidelity : scoring {fidelity['n_findings']} findings took "
        f"{fidelity['scoring_elapsed_s'] * 1e3:.1f} ms "
        f"({100 * fidelity['scoring_overhead_fraction']:.2f}% of the "
        f"{fidelity['experiments_elapsed_s']:.2f} s experiment sweep)"
    )
    print(
        f"resilience: supervised executor "
        f"{resilience['supervised_elapsed_s']:.2f} s vs bare "
        f"{resilience['bare_elapsed_s']:.2f} s "
        f"({100 * resilience['overhead_fraction']:+.2f}% overhead)"
    )
    print(
        f"lint     : {lint['n_modules']} modules, "
        f"{lint['per_file_elapsed_s']:.2f} s per-file + "
        f"{lint['program_elapsed_s']:.2f} s whole-program "
        f"({lint['findings']} findings)"
    )
    print(
        f"serve    : {serve['n_requests']} requests, p99 "
        f"{serve['latency_p99_s'] * 1e3:.2f} ms, "
        f"{serve['throughput_rps']:,.0f} rps throughput, saturation "
        f"{serve['saturation_rps']:,.0f} rps, cache hit rate "
        f"{serve['cache_hit_rate']:.2f} "
        f"(index build {serve['index_build_s'] * 1e3:.0f} ms)"
    )
    print(
        f"telemetry: {serve['telemetered_elapsed_s']:.2f} s telemetered vs "
        f"{serve['dark_elapsed_s']:.2f} s dark "
        f"({100 * serve['telemetry_overhead_fraction']:+.2f}% at "
        f"{100 * serve['trace_sample_rate']:.0f}% trace sampling)"
    )
    print(
        f"overload : at 2x saturation "
        f"({2 * overload['saturation_rps']:,.0f} rps offered): "
        f"{overload['goodput_rps']:,.0f} rps goodput, "
        f"{100 * overload['shed_rate']:.1f}% shed, admitted p99 "
        f"{overload['admitted_p99_s'] * 1e3:.2f} ms, health "
        f"{overload['at']['2x']['health']}"
    )

    # The ladder runs last: its 10^6 rung dominates the process RSS
    # high-water mark, so every earlier leg reads uncontaminated values.
    scale_ladder = _run_scale_ladder()
    regression = scale_ladder["streaming_regression"]
    print(
        f"streaming: {regression['streamed_elapsed_s']:.2f} s streamed vs "
        f"{regression['in_memory_elapsed_s']:.2f} s in-memory at "
        f"{regression['n_subscribers']:,} subscribers "
        f"({regression['ratio']:.2f}x)"
    )

    # Stamp the artifact the way the observatory stamps its records —
    # schema, git SHA, config fingerprint — and append the gated
    # indicators to the history store for repro-bench diff/gate.
    from repro.bench.history import (
        SCHEMA,
        append_record,
        config_fingerprint,
        git_sha,
        make_record,
    )

    bench_config = {
        "source": "perf_pipeline",
        "n_subscribers": N_SUBSCRIBERS,
        "n_communes": N_COMMUNES,
        "n_workers": N_WORKERS,
    }
    BENCH_JSON.write_text(
        json.dumps(
            {
                "schema": SCHEMA,
                "git_sha": git_sha(REPO_ROOT),
                "config_fingerprint": config_fingerprint(bench_config),
                "n_subscribers": N_SUBSCRIBERS,
                "n_communes": N_COMMUNES,
                "optimized": optimized,
                "sharded": sharded,
                "observability": observability,
                "fidelity": fidelity,
                "resilience": resilience,
                "lint": lint,
                "serve": serve,
                "overload": overload,
                "scale_ladder": scale_ladder,
            },
            indent=2,
        )
        + "\n"
    )
    append_record(
        Path(__file__).parent / "history.jsonl",
        make_record(
            bench_config,
            {
                "build": {
                    "records_per_s": optimized["records_per_s"],
                    "peak_rss_bytes": scale_ladder["rungs"][0][
                        "peak_rss_bytes"
                    ],
                },
                "serve": {
                    "throughput_rps": serve["throughput_rps"],
                    "latency_p99_s": serve["latency_p99_s"],
                    "saturation_rps": serve["saturation_rps"],
                },
                "overload": {
                    "goodput_rps": overload["goodput_rps"],
                    "admitted_p99_s": overload["admitted_p99_s"],
                },
            },
            sha=git_sha(REPO_ROOT),
        ),
    )

    # A laptop-scale floor: the chain must stay usable for 10^5-subscriber
    # panels.
    assert optimized["sessions_per_s"] > 1_000
    # Observation you did not ask for must be free (docs/observability.md).
    assert (
        observability["disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD
    )
    # The structured event log must stay cheap next to plain observation.
    assert (
        observability["event_log_overhead_fraction"] < MAX_EVENT_LOG_OVERHEAD
    )
    # Supervision on a fault-free build must cost next to nothing
    # (docs/robustness.md): production builds can always run supervised.
    assert resilience["overhead_fraction"] < MAX_SUPERVISED_OVERHEAD
    # The lint CI gate must never become the slow step of a PR.
    assert lint["elapsed_s"] < MAX_LINT_ELAPSED
    # The serving contract: every request answered, and the measured
    # saturation point must clear the offered load (the engine keeps up
    # with the workload it was benchmarked under).
    assert serve["n_errors"] == 0
    assert serve["saturation_rps"] > serve["offered_rps"]
    # Overload-safe serving (docs/robustness.md): pushing the offered
    # rate past saturation must engage shedding monotonically while
    # goodput never collapses to zero.
    assert overload["goodput_rps"] > 0
    assert (
        overload["at"]["4x"]["shed_rate"]
        >= overload["at"]["1x"]["shed_rate"]
    )
    # Full telemetry — observed session, event log, sampled tracing —
    # must stay a rounding error on the serve harness.
    assert serve["telemetry_overhead_fraction"] < MAX_TELEMETRY_OVERHEAD
    # The out-of-core contract: a nationwide-scale build stays inside a
    # laptop's memory...
    assert scale_ladder["rungs"][-1]["n_subscribers"] == 1_000_000
    assert scale_ladder["rungs"][-1]["peak_rss_bytes"] < MAX_RSS_AT_1M
    # ...and streaming never priced itself out of small builds.
    assert regression["ratio"] <= MAX_STREAMING_REGRESSION
