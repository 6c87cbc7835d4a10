"""Typed metrics and the process-local registry.

Every metric the pipeline can emit is declared up front in
:data:`SPECS` — name, kind, unit, pipeline stage, determinism class,
and a one-line description.  The table *is* the metrics contract:
:meth:`MetricsRegistry.add` rejects names that were never declared, and
the metric tables in ``docs/`` are generated from it — after changing a
spec, run ``tools/check_docs.py`` to regenerate them.

Determinism classes
-------------------

``events``
    Counts of simulation events (sessions, flows, GTP messages, DPI
    lookups, aggregated rows).  For a fixed ``(seed, n_shards)`` these
    are byte-identical across runs, worker counts and platforms; the
    determinism tests and ``repro-obs diff`` compare them exactly.
``derived``
    Deterministic floats derived from event data (byte totals,
    coverage fractions).  Reproducible for a fixed ``(seed,
    n_shards)`` — shard partials merge in index order — but compared
    approximately where float summation order may differ.
``timing``
    Wall-clock and memory readings from :mod:`repro.obs.clock`.
    Never compared; excluded from snapshots and diffs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.hist import LatencyHistogram

Number = Union[int, float]


class MetricKind(enum.Enum):
    """What kind of instrument a metric is."""

    COUNTER = "counter"  # monotone, merged by summation
    GAUGE = "gauge"  # point-in-time value, merged by last-write
    HISTOGRAM = "histogram"  # log-linear buckets, merged by count sums


class Determinism(enum.Enum):
    """How reproducible a metric's value is (see module docstring)."""

    EVENTS = "events"
    DERIVED = "derived"
    TIMING = "timing"


#: Comparison tolerance applied to a derived-class gauge whose spec
#: does not override it: shard merge order is fixed, so same-shape runs
#: agree far tighter than this.
DEFAULT_GAUGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class MetricSpec:
    """The declared contract of one metric."""

    name: str
    kind: MetricKind
    unit: str
    stage: str
    determinism: Determinism
    description: str
    #: Relative tolerance ``repro-obs diff`` compares this metric under.
    #: Only meaningful for gauges (counters compare exactly); ``None``
    #: falls back to :data:`DEFAULT_GAUGE_REL_TOL`.
    rel_tol: Optional[float] = None

    @property
    def effective_rel_tol(self) -> float:
        """The tolerance ``diff`` actually applies to this gauge."""
        return (
            DEFAULT_GAUGE_REL_TOL if self.rel_tol is None else self.rel_tol
        )


def _spec_table(specs: Iterable[MetricSpec]) -> Dict[str, MetricSpec]:
    table: Dict[str, MetricSpec] = {}
    for spec in specs:
        if spec.name in table:
            raise ValueError(f"duplicate metric spec {spec.name!r}")
        table[spec.name] = spec
    return table


_C, _G, _H = MetricKind.COUNTER, MetricKind.GAUGE, MetricKind.HISTOGRAM
_EV, _DE, _TI = Determinism.EVENTS, Determinism.DERIVED, Determinism.TIMING

#: The serving health ladder, worst-last; the ``serve.health.state``
#: gauge carries the index, and :mod:`repro.obs.prom` renders the same
#: order as a labeled state set.  Declared here (not in
#: ``repro.serve.health``, which re-exports it) so the exposition layer
#: never imports upward into the serving layer.
SERVE_HEALTH_STATES = ("ok", "degraded", "shedding")

#: The full metrics contract: every name the pipeline may emit.
SPECS: Dict[str, MetricSpec] = _spec_table(
    [
        # --- traffic generation -------------------------------------
        MetricSpec(
            "generator.sessions", _C, "sessions", "generation", _EV,
            "data sessions generated (PDP contexts / EPS bearers)",
        ),
        MetricSpec(
            "generator.flows", _C, "flows", "generation", _EV,
            "IP flows generated inside sessions",
        ),
        MetricSpec(
            "generator.subscribers", _C, "subscribers", "generation", _EV,
            "subscriber weeks driven through the generator",
        ),
        # --- GTP signalling / user plane ----------------------------
        MetricSpec(
            "gtp.control_messages", _C, "messages", "gtp", _EV,
            "GTP-C messages emitted (bulk creates count the "
            "request/response pair)",
        ),
        MetricSpec(
            "gtp.user_flow_records", _C, "records", "gtp", _EV,
            "GTP-U flow accounting records emitted",
        ),
        MetricSpec(
            "gtp.teids_allocated", _C, "teids", "gtp", _EV,
            "tunnel endpoint identifiers allocated",
        ),
        # --- DPI classification -------------------------------------
        MetricSpec(
            "dpi.flows_classified", _C, "flows", "dpi", _EV,
            "flows attributed to a catalog service",
        ),
        MetricSpec(
            "dpi.flows_unclassified", _C, "flows", "dpi", _EV,
            "flows no fingerprinting technique matched",
        ),
        # --- aggregation --------------------------------------------
        MetricSpec(
            "aggregation.rows", _C, "rows", "aggregation", _EV,
            "probe records folded into the commune-level tensors",
        ),
        MetricSpec(
            "aggregation.batches", _C, "batches", "aggregation", _EV,
            "columnar probe batches ingested",
        ),
        MetricSpec(
            "aggregation.total_bytes", _G, "bytes", "aggregation", _DE,
            "total traffic volume ingested, read from the DPI report",
            rel_tol=1e-9,
        ),
        MetricSpec(
            "aggregation.unclassified_bytes", _G, "bytes", "aggregation", _DE,
            "ingested volume left unattributed, read from the DPI report",
            rel_tol=1e-9,
        ),
        # --- sharded execution --------------------------------------
        MetricSpec(
            "shard.fan_out", _C, "shards", "parallel", _EV,
            "shards executed by session builds (1 for a one-shard build)",
        ),
        MetricSpec(
            "shard.results_merged", _C, "shards", "parallel", _EV,
            "shard partials of every session build absorbed by the parent",
        ),
        # --- resilient execution ------------------------------------
        MetricSpec(
            "resilience.attempts", _C, "attempts", "resilience", _EV,
            "shard attempts executed by the supervised executor",
        ),
        MetricSpec(
            "resilience.retries", _C, "attempts", "resilience", _EV,
            "shard attempts beyond each shard's first try",
        ),
        MetricSpec(
            "resilience.failures", _C, "failures", "resilience", _EV,
            "typed shard-attempt failures recorded by the supervisor",
        ),
        MetricSpec(
            "resilience.quarantined_shards", _C, "shards", "resilience", _EV,
            "shards quarantined after retry exhaustion",
        ),
        MetricSpec(
            "resilience.partials_resumed", _C, "shards", "resilience", _EV,
            "shard partials loaded from the partial store on resume",
        ),
        MetricSpec(
            "resilience.partials_written", _C, "shards", "resilience", _EV,
            "shard partials written to the partial store",
        ),
        MetricSpec(
            "resilience.partials_discarded", _C, "shards", "resilience", _EV,
            "partial-store files rejected on resume as damaged or mismatched",
        ),
        MetricSpec(
            "resilience.faults_injected", _C, "faults", "resilience", _EV,
            "fault-plan faults addressed to executed shard attempts",
        ),
        MetricSpec(
            "resilience.records_dropped", _C, "records", "resilience", _EV,
            "probe records lost inside accepted shards (outage model)",
        ),
        MetricSpec(
            "resilience.coverage_fraction", _G, "fraction", "resilience", _DE,
            "surviving fraction of the subscriber panel after degradation",
            rel_tol=1e-12,
        ),
        # --- streaming / out-of-core builds -------------------------
        MetricSpec(
            "stream.chunks", _C, "chunks", "streaming", _EV,
            "columnar probe chunks flushed to a streaming sink",
        ),
        MetricSpec(
            "stream.spills", _C, "spills", "streaming", _EV,
            "stored shard partials not kept loaded under the resident budget",
        ),
        MetricSpec(
            "stream.merge_passes", _C, "passes", "streaming", _EV,
            "merge passes folding shard partials into the aggregator",
        ),
        # --- dataset builds -----------------------------------------
        MetricSpec(
            "builder.session_datasets", _C, "datasets", "builder", _EV,
            "session-level dataset builds completed",
        ),
        MetricSpec(
            "builder.volume_datasets", _C, "datasets", "builder", _EV,
            "volume-level dataset builds completed",
        ),
        MetricSpec(
            "build.peak_rss_bytes", _G, "bytes", "builder", _TI,
            "peak resident set size observed at the end of a build",
        ),
        # --- experiments --------------------------------------------
        MetricSpec(
            "experiments.runs", _C, "experiments", "experiments", _EV,
            "figure experiments executed",
        ),
        MetricSpec(
            "experiments.checks_total", _C, "checks", "experiments", _EV,
            "paper-expectation checks evaluated",
        ),
        MetricSpec(
            "experiments.checks_failed", _C, "checks", "experiments", _EV,
            "paper-expectation checks that did not hold",
        ),
        # --- fidelity scorecard -------------------------------------
        MetricSpec(
            "fidelity.findings_pass", _C, "findings", "fidelity", _EV,
            "scorecard findings inside their accept band",
        ),
        MetricSpec(
            "fidelity.findings_warn", _C, "findings", "fidelity", _EV,
            "scorecard findings in the warn band (outside accept)",
        ),
        MetricSpec(
            "fidelity.findings_fail", _C, "findings", "fidelity", _EV,
            "scorecard findings outside both bands",
        ),
        MetricSpec(
            "fidelity.score", _G, "fraction", "fidelity", _DE,
            "fraction of scorecard findings inside their accept band",
            rel_tol=1e-12,
        ),
        # --- serving layer -------------------------------------------
        MetricSpec(
            "serve.queries", _C, "queries", "serve", _EV,
            "queries accepted and answered by the serving engine",
        ),
        MetricSpec(
            "serve.errors", _C, "queries", "serve", _EV,
            "queries rejected by validation as malformed or out of range "
            "(unknown service, bad bounds)",
        ),
        MetricSpec(
            "serve.index_builds", _C, "indexes", "serve", _EV,
            "index constructions (eager at load plus each materialized "
            "similarity view)",
        ),
        MetricSpec(
            "serve.cache_hits", _C, "queries", "serve", _EV,
            "queries answered from the result cache (pure LRU replay of "
            "the key sequence, parent-side, worker-count independent)",
        ),
        MetricSpec(
            "serve.cache_misses", _C, "queries", "serve", _EV,
            "queries that missed the result cache and were computed "
            "(same parent-side LRU replay)",
        ),
        MetricSpec(
            "serve.load_requests", _C, "requests", "serve", _EV,
            "scheduled requests executed by the load harness",
        ),
        MetricSpec(
            "serve.load_windows", _C, "windows", "serve", _EV,
            "Poisson sampling windows realized by the workload generator",
        ),
        MetricSpec(
            "serve.cache_hit_rate", _G, "fraction", "serve", _DE,
            "fraction of harness queries answered from the result cache",
            rel_tol=1e-12,
        ),
        MetricSpec(
            "serve.latency_p50_s", _G, "seconds", "serve", _TI,
            "median simulated open-loop request latency of a harness run",
        ),
        MetricSpec(
            "serve.latency_p95_s", _G, "seconds", "serve", _TI,
            "95th-percentile simulated open-loop request latency of a "
            "harness run",
        ),
        MetricSpec(
            "serve.latency_p99_s", _G, "seconds", "serve", _TI,
            "99th-percentile simulated open-loop request latency of a "
            "harness run",
        ),
        MetricSpec(
            "serve.throughput_rps", _G, "requests/s", "serve", _TI,
            "requests completed per second at the native schedule",
        ),
        MetricSpec(
            "serve.saturation_rps", _G, "requests/s", "serve", _TI,
            "highest offered rate whose simulated p99 met the bound",
        ),
        MetricSpec(
            "serve.trace_sampled", _C, "requests", "serve", _EV,
            "requests selected for phase-level tracing by the pure "
            "(seed, request_id) sampler",
        ),
        MetricSpec(
            "serve.latency.seconds", _H, "seconds", "serve", _TI,
            "log-linear histogram of simulated open-loop request "
            "latencies (merged across workers)",
        ),
        MetricSpec(
            "serve.latency.service_seconds", _H, "seconds", "serve", _TI,
            "log-linear histogram of measured per-request service times",
        ),
        # --- serving under overload ----------------------------------
        # Timing class throughout: shed and deadline outcomes depend on
        # measured service times, so under a real clock they are
        # run-dependent (under the harness's fake clock they are a pure
        # function of (seed, schedule, fault_plan) and pinned by tests).
        MetricSpec(
            "serve.deadline_exceeded", _C, "requests", "serve", _TI,
            "requests whose latency budget expired at a phase boundary "
            "and were answered with a typed deadline_exceeded payload",
        ),
        MetricSpec(
            "serve.shed.requests", _C, "requests", "serve", _TI,
            "requests shed by admission control (rate limiter plus "
            "queue-pressure shedding), never executed",
        ),
        MetricSpec(
            "serve.shed.rate_limited", _C, "requests", "serve", _TI,
            "requests shed because the token-bucket rate limiter was "
            "empty on arrival",
        ),
        MetricSpec(
            "serve.shed.queue_full", _C, "requests", "serve", _TI,
            "requests shed by queue pressure: the priority-aware hash "
            "(batch and low-priority shed first) or the hard depth bound",
        ),
        MetricSpec(
            "serve.shed.stale_answers", _C, "requests", "serve", _TI,
            "shed or degraded requests answered from the result cache "
            "as explicitly stale=true responses",
        ),
        MetricSpec(
            "serve.shed.rate", _G, "fraction", "serve", _TI,
            "fraction of offered requests shed by admission control",
        ),
        MetricSpec(
            "serve.health.state", _G, "state", "serve", _TI,
            "serving health ladder rung (0 ok, 1 degraded, 2 shedding)",
        ),
        MetricSpec(
            "serve.health.transitions", _C, "transitions", "serve", _TI,
            "health state-machine transitions (ratchet steps) over one "
            "harness run",
        ),
        MetricSpec(
            "serve.cache.corrupt_detected", _C, "entries", "serve", _TI,
            "cache entries whose stored digest failed verification on "
            "read (detected, evicted, and recomputed — never served)",
        ),
        MetricSpec(
            "serve.overload.goodput_rps", _G, "requests/s", "serve", _TI,
            "fresh answers per second under the overload schedule "
            "(admitted requests completing within deadline)",
        ),
        MetricSpec(
            "serve.overload.admitted_p99_s", _G, "seconds", "serve", _TI,
            "99th-percentile simulated latency over admitted requests "
            "under the overload schedule",
        ),
    ]
)


def spec_names() -> List[str]:
    """All declared metric names, sorted."""
    return sorted(SPECS)


class MetricsRegistry:
    """Process-local store of counter/gauge values.

    Only *declared* metrics (present in :data:`SPECS`) may be written;
    undeclared names raise ``KeyError`` so the metrics contract in
    ``docs/observability.md`` can never silently drift.  Values start
    absent — a metric appears in exports only once touched — which is
    what makes the no-op/"never enabled" path exactly empty.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    def add(self, name: str, value: Number = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        spec = SPECS.get(name)
        if spec is None or spec.kind is not MetricKind.COUNTER:
            raise KeyError(
                f"{name!r} is not a declared counter — add a MetricSpec "
                "to repro.obs.metrics.SPECS and document it in "
                "docs/observability.md"
            )
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        spec = SPECS.get(name)
        if spec is None or spec.kind is not MetricKind.GAUGE:
            raise KeyError(
                f"{name!r} is not a declared gauge — add a MetricSpec "
                "to repro.obs.metrics.SPECS and document it in "
                "docs/observability.md"
            )
        self.gauges[name] = value

    def _histogram_for(self, name: str) -> LatencyHistogram:
        spec = SPECS.get(name)
        if spec is None or spec.kind is not MetricKind.HISTOGRAM:
            raise KeyError(
                f"{name!r} is not a declared histogram — add a MetricSpec "
                "to repro.obs.metrics.SPECS and document it in "
                "docs/observability.md"
            )
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        self._histogram_for(name).observe(value)

    def merge_histogram(self, name: str, hist: LatencyHistogram) -> None:
        """Fold an externally built histogram into histogram ``name``."""
        self._histogram_for(name).merge(hist)

    def get(self, name: str) -> Optional[Number]:
        """Current value of a metric, or None if never touched."""
        if name in self.counters:
            return self.counters[name]
        return self.gauges.get(name)

    def merge_counters(self, counters: Dict[str, Number]) -> None:
        """Fold another registry's counter map in (summation)."""
        for name in sorted(counters):
            self.add(name, counters[name])

    def export_counters(self) -> Dict[str, Number]:
        """Counter name -> value, sorted by name (byte-stable)."""
        return {name: self.counters[name] for name in sorted(self.counters)}

    def export_gauges(self) -> Dict[str, Number]:
        """Gauge name -> value, sorted by name."""
        return {name: self.gauges[name] for name in sorted(self.gauges)}

    def export_histograms(self) -> Dict[str, Dict[str, object]]:
        """Histogram name -> encoded dict, sorted by name."""
        return {
            name: self.histograms[name].to_dict()
            for name in sorted(self.histograms)
        }

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


def validate_export(
    counters: Dict[str, Number],
    gauges: Dict[str, Number],
    histograms: Optional[Dict[str, Dict[str, object]]] = None,
) -> Tuple[bool, List[str]]:
    """Check an exported metric map against the contract.

    Returns ``(ok, problems)``; used by ``repro-obs diff`` to refuse
    dumps that carry names outside the declared contract.
    """
    problems: List[str] = []
    for name in sorted(counters):
        spec = SPECS.get(name)
        if spec is None:
            problems.append(f"undeclared counter {name!r}")
        elif spec.kind is not MetricKind.COUNTER:
            problems.append(
                f"{name!r} exported as counter but declared "
                f"{spec.kind.value}"
            )
    for name in sorted(gauges):
        spec = SPECS.get(name)
        if spec is None:
            problems.append(f"undeclared gauge {name!r}")
        elif spec.kind is not MetricKind.GAUGE:
            problems.append(
                f"{name!r} exported as gauge but declared {spec.kind.value}"
            )
    for name in sorted(histograms or {}):
        spec = SPECS.get(name)
        if spec is None:
            problems.append(f"undeclared histogram {name!r}")
        elif spec.kind is not MetricKind.HISTOGRAM:
            problems.append(
                f"{name!r} exported as histogram but declared "
                f"{spec.kind.value}"
            )
    return not problems, problems


__all__ = [
    "DEFAULT_GAUGE_REL_TOL",
    "Determinism",
    "MetricKind",
    "MetricSpec",
    "MetricsRegistry",
    "Number",
    "SERVE_HEALTH_STATES",
    "SPECS",
    "spec_names",
    "validate_export",
]
