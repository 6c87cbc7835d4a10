"""Pipeline observability: spans, typed metrics, exporters (zero-dep).

The measurement chain (generation → GTP → probe → DPI → aggregation) is
instrumented with two primitives:

- ``with obs.span("stage"):`` — nested wall-clock / peak-RSS timing,
  accumulated into a trace tree (:mod:`repro.obs.spans`);
- ``obs.add("metric", n)`` / ``obs.set_gauge("metric", v)`` — typed
  counters and gauges from the declared contract
  (:data:`repro.obs.metrics.SPECS`, documented name-by-name in
  ``docs/observability.md``).

Disabled by default: every call is a global load plus a ``None`` check.
Enable around a block with :func:`observed`, export with
:meth:`ObsSession.export`, render/diff with :mod:`repro.obs.export` or
the ``repro-obs`` CLI.  Event counters are deterministic for a fixed
``(seed, n_shards)`` regardless of worker count; timings are
explicitly non-deterministic and never compared.

This package is stdlib-only (no numpy) so tooling — the docs table
generator ``tools/check_docs.py``, the CLI's ``diff``/``show``/
``list-metrics`` — can load the contract without the simulation stack.
"""

from repro.obs.events import (
    load_jsonl,
    parse_jsonl,
    render_jsonl,
    write_jsonl,
)
from repro.obs.export import (
    DiffResult,
    diff_dumps,
    load_dump,
    render_json,
    render_text,
)
from repro.obs.hist import (
    DEFAULT_LAYOUT,
    HistogramLayout,
    LatencyHistogram,
    merge_all,
)
from repro.obs.metrics import (
    SPECS,
    Determinism,
    MetricKind,
    MetricSpec,
    MetricsRegistry,
    spec_names,
)
from repro.obs.prom import render_prom
from repro.obs.runtime import (
    ObsSession,
    SCHEMA,
    absorb_shard,
    add,
    current,
    disable,
    enable,
    is_enabled,
    log_event,
    merge_histogram,
    observe,
    observed,
    set_gauge,
    shard_capture,
    span,
)
from repro.obs.spans import SpanNode, find, flatten
from repro.obs.trace import render_trace_json, to_chrome_trace

__all__ = [
    "DEFAULT_LAYOUT",
    "DiffResult",
    "Determinism",
    "HistogramLayout",
    "LatencyHistogram",
    "MetricKind",
    "MetricSpec",
    "MetricsRegistry",
    "ObsSession",
    "SCHEMA",
    "SPECS",
    "SpanNode",
    "absorb_shard",
    "add",
    "current",
    "diff_dumps",
    "disable",
    "enable",
    "find",
    "flatten",
    "is_enabled",
    "load_dump",
    "load_jsonl",
    "log_event",
    "merge_all",
    "merge_histogram",
    "observe",
    "observed",
    "parse_jsonl",
    "render_json",
    "render_jsonl",
    "render_prom",
    "render_text",
    "render_trace_json",
    "set_gauge",
    "shard_capture",
    "span",
    "spec_names",
    "to_chrome_trace",
    "write_jsonl",
]
