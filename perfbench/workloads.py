"""The five benchmark workloads: inputs, one trial, checks, trace points.

Every trial runs in a fresh process started by ``run.py``::

    PYTHONPATH=src python perfbench/workloads.py '<spec json>'

and prints one JSON object as its last line of output.  The spec's
``role`` is ``prepare`` (make the run's inputs from the seed, untimed)
or ``trial`` (one timed, checked unit of work, traced when
``traced`` is set).  The program only ever sees the generated inputs.

Each workload exists to load a different part of the program:

- ``build_stream`` — the single-process session-level build to a
  written npz; the generate → GTP → probe → DPI → aggregate → store
  chain does the work and the executor, merge and serve layers are
  bypassed.
- ``build_sharded`` — the same inputs on two forked workers with every
  shard partial spilled and merged, so fork, supervision, spill and
  merge cost show here and nowhere else.
- ``serve_mixed`` — a mostly-distinct query mix (cache hit ratio near
  0.01), so parse, index and encode do the work and the cache writes
  and evicts.
- ``serve_hot`` — the same engine and rates with Zipf-repeated queries
  (hit ratio near 0.99), so the cache read path does the work.
- ``scorecard`` — the paper-reproduction path at the committed fidelity
  baseline's configuration; the only workload that runs the analysis
  layer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import SpanRecorder, breakdown, request_phases
from stats import median, percentile

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "fidelity-baseline.json"

MIB = float(1 << 20)


@dataclass(frozen=True)
class Sizes:
    build_subscribers: int
    build_communes: int
    serve_communes: int
    #: Requests of the closed loop; the open loops follow in the schedule.
    closed_requests: int
    #: Length of each open-loop phase, seconds.
    open_seconds: float
    hot_distinct: int


FULL = Sizes(
    build_subscribers=3000,
    build_communes=144,
    serve_communes=900,
    closed_requests=10_000,
    open_seconds=1.0,
    hot_distinct=256,
)
SMOKE = Sizes(
    build_subscribers=60,
    build_communes=24,
    serve_communes=30,
    closed_requests=300,
    open_seconds=0.02,
    hot_distinct=16,
)

#: Open-loop send rates, requests per second (utilisation ~0.1 and ~0.5
#: of one core on ``serve_mixed``).
OPEN_RATES = (5_000, 20_000)
CHUNK_SIZE = 8192
N_SHARDS = 2
ZIPF_S = 1.1
INTERACTIVE_DEADLINE_MS = 50.0
BATCH_DEADLINE_MS = 250.0
#: Experiments with their own row in the scorecard breakdown; the rest
#: share ``experiments.other``.
DETAILED_EXPERIMENTS = ("fig5", "fig6", "fig7", "text")
SEED_ATTEMPTS = 8
SEED_STRIDE = 100_000


def now() -> float:
    return time.perf_counter()


def peak_rss_mib() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak * 1024 / MIB


def npz_digest(path: Path) -> str:
    """sha256 over every array of an npz (the zip's timestamps excluded)."""
    import numpy as np

    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for key in sorted(data.files):
            array = data[key]
            digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _root(recorder: Optional[SpanRecorder]):
    return recorder.span("trial") if recorder is not None else nullcontext()


# ----------------------------------------------------------------------
# the open- and closed-loop serve drivers
# ----------------------------------------------------------------------
def closed_loop(
    execute: Callable,
    queries: Sequence,
    ids: Sequence[str],
    clock: Callable[[], float] = now,
) -> Tuple[List[str], List[str], List[float]]:
    """One client, zero think time: each request waits for the last.

    Returns ``(answers, statuses, latency_s)``.  Only strings are kept,
    so holding the answers adds nothing for the cyclic GC to scan.
    """
    answers: List[str] = []
    statuses: List[str] = []
    latency: List[float] = []
    before = clock()
    for query, rid in zip(queries, ids):
        result = execute(query, request_id=rid)
        after = clock()
        answers.append(result.encoded)
        statuses.append(result.status)
        latency.append(after - before)
        before = after
    return answers, statuses, latency


def open_loop(
    execute: Callable,
    queries: Sequence,
    ids: Sequence[str],
    due_s: Sequence[float],
    clock: Callable[[], float] = now,
) -> Tuple[List[str], List[str], List[float], List[float]]:
    """Send request ``i`` at ``due_s[i]`` after start, whatever came before.

    Returns ``(answers, statuses, latency_s, late_s)``.  Latency runs
    from the due time, not the send time, so a stall delays every
    request queued behind it and shows in their latency; ``late_s`` is
    how late each send was.
    """
    answers: List[str] = []
    statuses: List[str] = []
    latency: List[float] = []
    late: List[float] = []
    origin = clock()
    for query, rid, offset in zip(queries, ids, due_s):
        due = origin + offset
        sent = clock()
        while sent < due:
            sent = clock()
        result = execute(query, request_id=rid)
        done = clock()
        answers.append(result.encoded)
        statuses.append(result.status)
        latency.append(done - due)
        late.append(sent - due)
    return answers, statuses, latency, late


def rescale(offsets_ms: Sequence[float], rate: float) -> List[float]:
    """Poisson offsets (ms) as due times (s) at ``rate`` requests/s."""
    first = offsets_ms[0]
    span_s = (offsets_ms[-1] - first) / 1000.0
    scale = len(offsets_ms) / rate / span_s if span_s > 0 else 0.0
    return [(offset - first) / 1000.0 * scale for offset in offsets_ms]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _build_kwargs(workload: str, seed: int, sizes: Sizes, workdir: Path) -> Dict[str, Any]:
    from repro.geo.country import CountryConfig

    kwargs: Dict[str, Any] = dict(
        n_subscribers=sizes.build_subscribers,
        country_config=CountryConfig(n_communes=sizes.build_communes),
        chunk_size=CHUNK_SIZE,
        seed=seed,
    )
    if workload == "build_sharded":
        kwargs.update(
            n_shards=N_SHARDS,
            n_workers=N_SHARDS,
            spill_dir=workdir / f"spill-{os.getpid()}",
            spill_budget_bytes=0,
        )
    else:
        kwargs.update(n_shards=1)
    return kwargs


def prepare(spec: Dict[str, Any], sizes: Sizes) -> Dict[str, Any]:
    """Make the run's inputs from its seed; for builds, the reference output.

    Some seeds make the build raise ``LookupError`` (wrapped in a
    ``ShardExecutionError`` when sharded): mobility can move a session
    into a commune without coverage (a "white zone"), where attaching
    it fails.  Those seeds are skipped for the next candidate,
    ``seed + SEED_STRIDE``, and every skip is reported with the run.
    """
    workload, workdir = spec["workload"], Path(spec["workdir"])
    if workload.startswith("serve_"):
        return _prepare_serve(spec, sizes, workdir, hot=workload == "serve_hot")
    if workload == "scorecard":
        # Verdicts are graded against the committed baseline, which only
        # holds for its own configuration: other seeds can read "warn".
        meta = json.loads(BASELINE.read_text())["meta"]
        return {"seed": meta["seed"], "n_communes": meta["n_communes"]}
    from repro.resilience.supervisor import ShardExecutionError

    skipped: List[str] = []
    for attempt in range(SEED_ATTEMPTS):
        seed = spec["seed"] + attempt * SEED_STRIDE
        try:
            reference = _reference_build(workload, seed, sizes, workdir)
        except LookupError as exc:
            skipped.append(f"seed {seed}: LookupError: {exc}")
            continue
        except ShardExecutionError as exc:
            # The same defect inside shards, reported after retries.
            if not all(f.message.startswith("LookupError:") for f in exc.failures):
                raise
            skipped.append(f"seed {seed}: {exc.failures[0].message}")
            continue
        return dict(reference, seed=seed, skipped=skipped)
    raise RuntimeError("no seed the program completes on: " + "; ".join(skipped))


def _reference_build(workload: str, seed: int, sizes: Sizes, workdir: Path) -> Dict[str, Any]:
    """An untimed build: the digest every timed trial must reproduce.

    In process and unspilled, so sharded trials must reproduce it on two
    workers with every partial spilled.  Being in process, it also
    counts the distinct DPI feature tuples, which the timed trials then
    need not do.
    """
    from repro.dataset.builder import build_session_level_dataset
    from repro.dpi.classifier import DpiEngine

    kwargs = _build_kwargs(workload, seed, sizes, workdir)
    kwargs.update(n_workers=1, spill_dir=None, spill_budget_bytes=None)
    distinct: set = set()
    classify_batch = DpiEngine.classify_batch

    def counting_classify_batch(self, keys, volumes):
        distinct.update(keys)
        return classify_batch(self, keys, volumes)

    DpiEngine.classify_batch = counting_classify_batch
    try:
        artifacts = build_session_level_dataset(**kwargs)
    finally:
        DpiEngine.classify_batch = classify_batch
    path = artifacts.dataset.save(workdir / "reference.npz")
    digest = npz_digest(path)
    path.unlink()
    flows = artifacts.extras["generator"].flows_generated
    return {"digest": digest, "distinct_key_ratio": len(distinct) / flows}


def _prepare_serve(
    spec: Dict[str, Any], sizes: Sizes, workdir: Path, hot: bool
) -> Dict[str, Any]:
    import numpy as np

    from repro.dataset.builder import build_volume_level_dataset
    from repro.geo.country import CountryConfig
    from repro.serve.engine import ServeEngine
    from repro.serve.queries import CubeProfile
    from repro.serve.workload import WorkloadSpec, generate_schedule, render_schedule_csv

    seed = spec["seed"]
    dataset = build_volume_level_dataset(
        country_config=CountryConfig(n_communes=sizes.serve_communes), seed=seed
    ).dataset
    npz = dataset.save(workdir / "cube.npz")
    n = sizes.closed_requests + sum(int(r * sizes.open_seconds) for r in OPEN_RATES)
    # One 60 s window whose expected count is 1.3 n, so n fit with margin.
    schedule = generate_schedule(
        WorkloadSpec(
            duration_s=60.0,
            mean_active_users=1.3 * n,
            mean_requests_per_minute_per_user=1.0,
            user_sampling_window_s=60.0,
            interactive_deadline_ms=INTERACTIVE_DEADLINE_MS,
            batch_deadline_ms=BATCH_DEADLINE_MS,
        ),
        CubeProfile.of(dataset),
        seed,
    )
    if len(schedule) < n:
        raise RuntimeError(f"schedule has {len(schedule)} requests, need {n}")
    requests = schedule[:n]
    if hot:
        pool: Dict[str, Any] = {}
        for request in schedule:
            pool.setdefault(request.query.cache_key(), request.query)
            if len(pool) == sizes.hot_distinct:
                break
        queries = list(pool.values())
        weights = 1.0 / np.arange(1, len(queries) + 1) ** ZIPF_S
        picks = np.random.default_rng(seed).choice(
            len(queries), size=n, p=weights / weights.sum()
        )
        requests = [
            replace(request, query=queries[int(i)])
            for request, i in zip(requests, picks)
        ]
    # The reference engine caches nothing, so every answer is computed.
    reference_engine = ServeEngine(dataset, cache_capacity=0)
    reference: Dict[str, str] = {}
    for request in requests:
        key = request.query.cache_key()
        if key not in reference:
            reference[key] = sha256_text(reference_engine.query_encoded(request.query))
    (workdir / "requests.csv").write_text(render_schedule_csv(requests))
    (workdir / "reference.json").write_text(json.dumps(reference))
    return {
        "seed": seed,
        "npz": str(npz),
        "requests": str(workdir / "requests.csv"),
        "reference": str(workdir / "reference.json"),
    }


# ----------------------------------------------------------------------
# trace points: public calls of each layer, patched from here only
# ----------------------------------------------------------------------
def _trace_build(recorder: SpanRecorder, sharded: bool) -> None:
    from repro.dataset import builder
    from repro.dataset.aggregation import CommuneAggregator
    from repro.dataset.merge import SpilledShardResult
    from repro.dataset.store import MobileTrafficDataset
    from repro.dpi.classifier import DpiEngine
    from repro.network.probes import CoreProbe
    from repro.resilience import supervisor
    from repro.traffic.generator import SessionLevelGenerator

    for attr, name in (
        ("build_country", "geo.country"),
        ("build_intensity_model", "traffic.intensity"),
        ("build_topology", "network.topology"),
        ("synthesize_population", "traffic.population"),
    ):
        recorder.patch(builder, attr, name)
    recorder.patch(CommuneAggregator, "finalize", "dataset.finalize")
    recorder.patch(MobileTrafficDataset, "save", "dataset.store.save")
    if sharded:
        # The chain runs in forked workers, out of this recorder's sight.
        recorder.patch(supervisor, "execute_shards_supervised", "resilience.execute")
        recorder.patch(CommuneAggregator, "merge", "dataset.merge")
        recorder.patch(SpilledShardResult, "load", "dataset.merge")
        return
    recorder.patch(SessionLevelGenerator, "run_week", "traffic.generate")
    # Patched on the class before the builder attaches the probe, so the
    # session manager registers the traced bound methods.
    for attr in (
        "on_control",
        "on_user_plane",
        "on_control_bulk",
        "on_user_plane_bulk",
        "flush_stream",
    ):
        recorder.patch(CoreProbe, attr, "network.probe")
    recorder.patch(CommuneAggregator, "ingest_columnar", "dataset.aggregate")
    recorder.patch(DpiEngine, "classify_batch", "dpi.classify")


def _trace_serve(recorder: SpanRecorder) -> None:
    from repro.dataset.store import MobileTrafficDataset
    from repro.serve import engine
    from repro.serve.cache import LRUCache

    recorder.patch(MobileTrafficDataset, "load", "dataset.store.load")
    recorder.patch(engine.ServeEngine, "__init__", "serve.index_build")
    recorder.patch(engine.ServeEngine, "warm", "serve.similarity_warm")
    # The request span's self time is the index scan plus deadline glue:
    # that part of the request has no public boundary of its own.
    recorder.patch(
        engine.ServeEngine,
        "execute",
        "serve.index",
        request=lambda *args, **kwargs: kwargs.get("request_id"),
    )
    recorder.patch(engine, "validate_query", "serve.parse")
    recorder.patch(engine, "encode_canonical", "serve.encode")
    recorder.patch(LRUCache, "get", "serve.cache")
    recorder.patch(LRUCache, "put", "serve.cache")


def _trace_scorecard(recorder: SpanRecorder) -> None:
    import repro.experiments as experiments
    from repro.fidelity import scorecard

    def figure_row(experiment_id, *args, **kwargs) -> str:
        tag = experiment_id if experiment_id in DETAILED_EXPERIMENTS else "other"
        return f"experiments.{tag}"

    recorder.patch(experiments, "build_default_context", "experiments.context")
    recorder.patch(experiments, "run_figure", figure_row)
    recorder.patch(scorecard, "extract", "fidelity.score")


# ----------------------------------------------------------------------
# one trial per workload family
# ----------------------------------------------------------------------
def _build_trial(spec, sizes, recorder) -> Dict[str, Any]:
    from repro.dataset.builder import build_session_level_dataset

    ready = time.monotonic()
    sharded = spec["workload"] == "build_sharded"
    workdir = Path(spec["workdir"])
    if recorder is not None:
        _trace_build(recorder, sharded)
    kwargs = _build_kwargs(spec["workload"], spec["prepared"]["seed"], sizes, workdir)
    out = workdir / f"build-{os.getpid()}.npz"
    start = now()
    with _root(recorder):
        artifacts = build_session_level_dataset(**kwargs)
        artifacts.dataset.save(out)
    wall = now() - start

    flows = int(artifacts.extras["generator"].flows_generated)
    counts: Dict[str, float] = {
        "build.flows": flows,
        "dataset.store.npz_mib": out.stat().st_size / MIB,
        "dpi.distinct_key_ratio": spec["prepared"]["distinct_key_ratio"],
    }
    if sharded:
        spill = kwargs["spill_dir"]
        counts["dataset.merge.spilled_mib"] = (
            sum(p.stat().st_size for p in spill.iterdir()) / MIB
        )
        execution = artifacts.extras["execution"]
        per_shard = [p.flows_generated for p in execution.partials]
        counts["dataset.parallel.shard_skew"] = max(per_shard) / (
            sum(per_shard) / len(per_shard)
        )
        counts["resilience.attempts"] = execution.attempts_executed
        shutil.rmtree(spill)
    problems = artifacts.dataset.integrity_problems()
    digest = npz_digest(out)
    out.unlink()
    return {
        "section_s": wall,
        "e2e": {
            "setup_s": ready - spec["launch"],
            "latency_ms": wall * 1e3,
            "throughput_per_s": flows / wall,
        },
        "counts": counts,
        "digest": digest,
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
    }


def _serve_trial(spec, sizes, recorder) -> Dict[str, Any]:
    from repro.serve.engine import ServeEngine
    from repro.serve.workload import parse_schedule_csv

    ready = time.monotonic()
    prepared = spec["prepared"]
    requests = parse_schedule_csv(Path(prepared["requests"]).read_text())
    reference = json.loads(Path(prepared["reference"]).read_text())
    queries = [r.query for r in requests]
    ids = [r.request_id for r in requests]
    offsets_ms = [r.arrival_offset_ms for r in requests]
    # The driver's own parsed inputs must not lengthen the program's GC
    # pauses, which the open-loop tail latencies would then report.
    gc.freeze()
    if recorder is not None:
        _trace_serve(recorder)

    n = sizes.closed_requests
    sent: List = []
    answers: List[str] = []
    statuses: List[str] = []

    closed_latency: List[float] = []

    def closed_pass() -> float:
        began = now()
        got, status, latency = closed_loop(engine.execute, queries[:n], ids[:n])
        took = now() - began
        sent.extend(queries[:n])
        answers.extend(got)
        statuses.extend(status)
        closed_latency.extend(latency)
        return took

    start = now()
    with _root(recorder):
        engine = ServeEngine.open(prepared["npz"])
        engine.warm(queries)
        opened = now()
        closed_pass()  # warm-up: first-touch allocation and cache fill
        del closed_latency[:]
        closed_s = [closed_pass()]
        section_s = now() - start
    e2e = {"setup_s": ready - spec["launch"] + opened - start}
    printed: Dict[str, float] = {}
    if recorder is None:
        # The open loops idle between sends, so the traced run skips
        # them.  A closed pass follows each, spreading capacity samples
        # over the trial.
        first = n
        for rate in OPEN_RATES:
            segment = slice(first, first + int(rate * sizes.open_seconds))
            got, status, latency, late = open_loop(
                engine.execute,
                queries[segment],
                ids[segment],
                rescale(offsets_ms[segment], rate),
            )
            sent.extend(queries[segment])
            answers.extend(got)
            statuses.extend(status)
            tag = f"r{rate // 1000}k"
            printed[f"serve.p50_us.{tag}"] = percentile(latency, 50) * 1e6
            printed[f"serve.p99_us.{tag}"] = percentile(latency, 99) * 1e6
            printed[f"serve.driver_late_us.{tag}"] = percentile(late, 99) * 1e6
            first = segment.stop
            closed_s.append(closed_pass())
        e2e["throughput_per_s"] = n * len(closed_s) / sum(closed_s)
        # The open-loop percentiles are printed only: requests arriving
        # alone run with cold caches and swing with the host's load far
        # more than back-to-back ones.
        e2e["latency_ms"] = median(closed_latency) * 1e3

    # A missed deadline is a timing event on a busy host, not a wrong
    # answer: it is counted in serve.deadline_exceeded, and only answers
    # given must match the reference.
    failed = sum(
        1
        for query, status, answer in zip(sent, statuses, answers)
        if status != "deadline_exceeded"
        and (status != "ok" or sha256_text(answer) != reference[query.cache_key()])
    )
    cache = engine.cache
    lookups = cache.hits + cache.misses
    counts = {
        "serve.cache_hit_ratio": cache.hits / lookups,
        "serve.cache_evictions": max(0, cache.misses - len(cache)),
        "serve.deadline_exceeded": statuses.count("deadline_exceeded"),
        "dataset.store.npz_mib": Path(prepared["npz"]).stat().st_size / MIB,
    }
    printed["serve.cache_hit_ratio"] = counts["serve.cache_hit_ratio"]
    return {
        "section_s": section_s,
        "e2e": e2e,
        "counts": counts,
        "printed": printed,
        "attempted": len(statuses),
        "failed": failed,
    }


def _scorecard_trial(spec, sizes, recorder) -> Dict[str, Any]:
    import repro.experiments  # noqa: F401  run_scorecard imports it lazily
    from repro.fidelity.scorecard import (
        gate_scorecard,
        load_scorecard,
        render_scorecard_json,
        run_scorecard,
    )

    ready = time.monotonic()
    baseline = load_scorecard(str(BASELINE))
    if recorder is not None:
        _trace_scorecard(recorder)
    start = now()
    with _root(recorder):
        card = run_scorecard(
            seed=spec["prepared"]["seed"], n_communes=spec["prepared"]["n_communes"]
        )
    wall = now() - start
    gate = gate_scorecard(card, baseline)
    findings = len(card["findings"])
    return {
        "section_s": wall,
        "e2e": {
            "setup_s": ready - spec["launch"],
            "latency_ms": wall * 1e3,
            "throughput_per_s": findings / wall,
        },
        "counts": {},
        "digest": sha256_text(render_scorecard_json(card)),
        "attempted": findings,
        "failed": len(gate.regressions) + len(gate.only_in_baseline) + len(gate.problems),
        "problems": gate.problems,
    }


def run_trial(spec: Dict[str, Any], sizes: Sizes) -> Dict[str, Any]:
    trial = {
        "build_stream": _build_trial,
        "build_sharded": _build_trial,
        "serve_mixed": _serve_trial,
        "serve_hot": _serve_trial,
        "scorecard": _scorecard_trial,
    }[spec["workload"]]
    recorder = SpanRecorder() if spec.get("traced") else None
    try:
        result = trial(spec, sizes, recorder)
    finally:
        if recorder is not None:
            recorder.restore()
    result["e2e"]["peak_rss_mib"] = peak_rss_mib()
    if recorder is not None:
        spans = recorder.spans()
        result["layers"], result["root_s"] = breakdown(spans)
        if spec["workload"] == "build_stream":
            result["counts"]["dataset.chunks"] = sum(
                span.name == "dataset.aggregate" for span in spans
            )
        for name, values in request_phases(spans).items():
            result.setdefault("printed", {})[f"{name}_us"] = median(values) * 1e6
        if spec.get("spans_path"):
            recorder.write(spec["spans_path"])
    return result


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    sizes = SMOKE if spec.get("smoke") else FULL
    if spec["role"] == "prepare":
        result = prepare(spec, sizes)
    else:
        result = run_trial(spec, sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
