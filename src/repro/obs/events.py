"""Structured event log: a deterministic JSONL record of one session.

While the span tree answers *where the time went* (timing-class,
never compared), the event log answers *what happened, in what order* —
and is built so the answer is reproducible.  An event is a plain
``(kind, name, value)`` tuple appended to the active
:class:`~repro.obs.runtime.ObsSession` when it was enabled with
``log_events=True``:

``span_begin`` / ``span_end``
    One pair per stage entry (``with obs.span(...)``), carrying no
    wall-clock — only the structure of the run.
``counter`` / ``gauge``
    One per metric write, carrying the delta/value (deterministic for a
    fixed ``(seed, n_shards)`` like the counters themselves).
``snapshot``
    A full counter snapshot at a labelled point — each shard capture
    emits one on exit, and :meth:`ObsSession.export_events` appends a
    final one.
``verdict``
    A fidelity-scorecard verdict (``repro.fidelity``): finding name plus
    ``{"verdict", "value"}``.
``retry`` / ``quarantine`` / ``resume``
    Supervised-execution history (``repro.resilience``): one ``retry``
    per charged shard failure (``{"attempt", "kind"}``), one
    ``quarantine`` per shard dropped after exhaustion, one ``resume``
    per shard loaded from the partial store instead of run.  Emitted on the parent
    in shard-index order after execution settles, so they inherit the
    worker-count-independence of the rest of the log.
``schedule`` / ``request``
    Serving-layer workload history (``repro.serve``): one ``schedule``
    per Poisson sampling window (``{"active_users", "requests"}``) and
    one ``request`` per executed scheduled request (``{"family",
    "mode", "priority"}``), emitted in schedule order.  Both carry only
    seed-derived data — never latencies — so the log stays a
    deterministic trace.
``trace``
    One per request selected for phase-level tracing by the pure
    ``(seed, request_id)`` sampler (``repro.serve.load``): request id
    plus ``{"family", "mode", "cache"}`` where ``cache`` is the
    replayed would-be outcome (traced requests bypass the live result
    cache so their span structure is cache-state independent).  Emitted
    on the parent in schedule order — seed-derived only, no timings.

Determinism contract: events carry **no timestamps**, shard events are
captured inside the shard's private session and spliced into the parent
log in shard-index order (the same guarantee the counters have), so the
rendered JSONL is byte-identical across worker counts for a fixed
``(seed, n_shards)`` — asserted in
``tests/integration/test_obs_pipeline.py``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Tuple

#: One logged event: (kind, name, value-or-None).
Event = Tuple[str, str, Any]

#: The event kinds the runtime emits (a closed set: renderers and
#: consumers may rely on it).
KINDS = (
    "span_begin",
    "span_end",
    "counter",
    "gauge",
    "snapshot",
    "verdict",
    "retry",
    "quarantine",
    "resume",
    "schedule",
    "request",
    "trace",
)


def render_jsonl(events: Iterable[Event]) -> str:
    """Serialize events as JSON Lines, one object per line.

    Keys are sorted and separators fixed, so equal event sequences
    render to byte-identical text; ``i`` is the 0-based sequence number.
    """
    lines: List[str] = []
    for index, (kind, name, value) in enumerate(events):
        obj = {"i": index, "e": kind, "name": name}
        if value is not None:
            obj["v"] = value
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n" if lines else ""


def parse_jsonl(text: str) -> List[Event]:
    """Rebuild the event list from :func:`render_jsonl` output.

    Sequence numbers are validated — a spliced or truncated log fails
    loudly instead of silently reordering history.
    """
    events: List[Event] = []
    for lineno, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        obj = json.loads(line)
        if obj.get("i") != len(events):
            raise ValueError(
                f"line {lineno + 1}: sequence number {obj.get('i')!r}, "
                f"expected {len(events)} — log is reordered or truncated"
            )
        events.append((str(obj["e"]), str(obj["name"]), obj.get("v")))
    return events


def load_jsonl(path: str) -> List[Event]:
    """Read one JSONL event-log file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read())


def write_jsonl(path: str, events: Iterable[Event]) -> None:
    """Write events to ``path`` in the JSONL format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_jsonl(events))


__all__ = [
    "Event",
    "KINDS",
    "load_jsonl",
    "parse_jsonl",
    "render_jsonl",
    "write_jsonl",
]
