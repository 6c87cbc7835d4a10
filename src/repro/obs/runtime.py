"""Process-local observability runtime.

The instrumented pipeline calls three functions — :func:`add`,
:func:`set_gauge` and :func:`span` — at every interesting stage.  By
default nothing is active and each call is a single global load plus a
``None`` check (the disabled path allocates nothing and touches no
dict), so instrumentation stays in place permanently; its last
recorded cost is in ``docs/observability.md`` ("Overhead").
:func:`enable` activates a fresh :class:`ObsSession` (metrics
registry + span tree); :func:`observed` scopes one around a block::

    from repro import obs

    with obs.observed() as session:
        build_session_level_dataset(seed=7)
    print(obs.render_text(session.export()))

Sharded builds capture each shard's metrics in the worker process with
:func:`shard_capture` and fold them back into the parent session with
:func:`absorb_shard` — counter totals are therefore identical whether
shards run in-process or across workers (``docs/observability.md``).

The runtime is process-local and single-threaded by design, matching
the pipeline it instruments; worker *processes* get their own copy via
fork and report back through their ``ShardResult``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.obs import clock
from repro.obs.events import Event
from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import SPECS, Determinism, MetricsRegistry, Number
from repro.obs.spans import SpanNode

#: Schema tag written into every dump, bumped on breaking layout change.
SCHEMA = "repro-obs/1"

ROOT_SPAN = "total"


class ObsSession:
    """One enabled observation window: a registry plus a span tree."""

    __slots__ = (
        "registry",
        "root",
        "stack",
        "events",
        "log_events",
        "_t0",
    )

    def __init__(self, root_name: str = ROOT_SPAN, log_events: bool = False):
        self.registry = MetricsRegistry()
        self.root = SpanNode(root_name)
        #: Innermost-active-last stack of open spans; the root is always
        #: open so top-level spans have a parent.
        self.stack = [self.root]
        #: Structured event log (``repro.obs.events``); only populated
        #: when ``log_events`` is True.
        self.events: List[Event] = []
        self.log_events = log_events
        self._t0 = clock.now_s()

    def export(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The session as a JSON-ready dump (the ``repro-obs`` format)."""
        self.root.count = 1
        self.root.elapsed_s = clock.now_s() - self._t0
        self.root.peak_rss_bytes = clock.peak_rss_bytes()
        return {
            "schema": SCHEMA,
            "counters": self.registry.export_counters(),
            "gauges": self.registry.export_gauges(),
            "histograms": self.registry.export_histograms(),
            "spans": self.root.to_dict(),
            "meta": dict(meta or {}),
        }

    def export_events(self) -> List[Event]:
        """The event log plus a final counter snapshot (non-mutating).

        Empty unless the session was enabled with ``log_events=True``;
        the trailing ``snapshot`` event makes every exported log end on
        the session's merged counter totals.
        """
        if not self.log_events:
            return []
        return list(self.events) + [
            ("snapshot", "final", self.registry.export_counters())
        ]


_ACTIVE: Optional[ObsSession] = None


def is_enabled() -> bool:
    """Whether an observation session is currently active."""
    return _ACTIVE is not None


def current() -> Optional[ObsSession]:
    """The active session, or None."""
    return _ACTIVE


def enable(log_events: bool = False) -> ObsSession:
    """Activate a fresh session; error if one is already active."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "observability already enabled — disable() the active "
            "session first (the runtime is process-local, not reentrant)"
        )
    _ACTIVE = ObsSession(log_events=log_events)
    return _ACTIVE


def disable() -> Optional[ObsSession]:
    """Deactivate and return the session (None if none was active)."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


class _Observed:
    """Context manager produced by :func:`observed`."""

    __slots__ = ("session", "_log_events")

    def __init__(self, log_events: bool = False):
        self._log_events = log_events

    def __enter__(self) -> ObsSession:
        self.session = enable(log_events=self._log_events)
        return self.session

    def __exit__(self, *exc_info) -> None:
        disable()


def observed(log_events: bool = False) -> _Observed:
    """Scope an observation session around a ``with`` block."""
    return _Observed(log_events=log_events)


def add(name: str, value: Number = 1) -> None:
    """Increment counter ``name``; no-op unless enabled."""
    session = _ACTIVE
    if session is None:
        return
    session.registry.add(name, value)
    if session.log_events and SPECS[name].determinism is not Determinism.TIMING:
        # Timing-class counters (overload/shed outcomes under a real
        # clock) would make the event log run-dependent, exactly like
        # timing-class gauges below — the log stays a deterministic
        # trace.
        session.events.append(("counter", name, value))


def set_gauge(name: str, value: Number) -> None:
    """Set gauge ``name``; no-op unless enabled."""
    session = _ACTIVE
    if session is None:
        return
    session.registry.set_gauge(name, value)
    if session.log_events and SPECS[name].determinism is not Determinism.TIMING:
        # Timing-class gauges (RSS, wall-clock) would make the event
        # log run-dependent; the log stays a deterministic trace.
        session.events.append(("gauge", name, value))


def observe(name: str, value: float) -> None:
    """Record one value into histogram ``name``; no-op unless enabled.

    Histogram observations are timing-class by contract (they carry
    wall-clock latencies) and therefore never reach the structured
    event log — only the bucketed snapshot in the export does.
    """
    session = _ACTIVE
    if session is None:
        return
    session.registry.observe(name, value)


def merge_histogram(name: str, hist: LatencyHistogram) -> None:
    """Fold a pre-built histogram into ``name``; no-op unless enabled."""
    session = _ACTIVE
    if session is None:
        return
    session.registry.merge_histogram(name, hist)


def log_event(kind: str, name: str, value: Any = None) -> None:
    """Append one structured event; no-op unless event logging is on.

    Used by layers above the metric contract — the fidelity scorecard
    records its ``verdict`` events here — so anything that matters to
    "what happened" lands in the same deterministic log as the pipeline
    stages (``repro.obs.events``).
    """
    session = _ACTIVE
    if session is None or not session.log_events:
        return
    session.events.append((kind, name, value))


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _SpanTimer:
    """Times one stage run and accounts it into the session tree."""

    __slots__ = ("_session", "_name", "_attrs", "_node", "_t0")

    def __init__(
        self,
        session: ObsSession,
        name: str,
        attrs: Optional[Dict[str, Number]] = None,
    ):
        self._session = session
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanTimer":
        session = self._session
        self._node = session.stack[-1].child(self._name)
        session.stack.append(self._node)
        if session.log_events:
            session.events.append(("span_begin", self._name, None))
        self._t0 = clock.now_s()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = clock.now_s() - self._t0
        session = self._session
        self._node.record(elapsed, clock.peak_rss_bytes(), self._attrs)
        session.stack.pop()
        if session.log_events:
            session.events.append(("span_end", self._name, None))


def span(name: str, attrs: Optional[Dict[str, Number]] = None):
    """Context manager timing one pipeline stage; no-op unless enabled.

    Nested ``with obs.span(...)`` blocks build the trace tree; repeated
    same-name spans under one parent accumulate into a single node.
    Numeric ``attrs`` sum into the node across runs — a chunked stage
    passes e.g. ``{"subscribers": k}`` so one span line still accounts
    for how much work its runs covered.
    """
    session = _ACTIVE
    if session is None:
        return _NOOP_SPAN
    return _SpanTimer(session, name, attrs)


class _ShardCapture:
    """Swaps in a fresh session for one shard and snapshots its output.

    Used by :func:`repro.dataset.parallel.run_shard`: the shard's
    metrics and spans must travel back to the parent as plain data
    (fork-isolated workers share no memory), and the in-process
    fallback must produce the same totals — so both paths capture into
    a fresh session and the parent absorbs the snapshot exactly once.
    """

    __slots__ = ("label", "export", "_outer")

    def __init__(self, label: str):
        self.label = label
        self.export: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "_ShardCapture":
        global _ACTIVE
        self._outer = _ACTIVE
        if self._outer is not None:
            _ACTIVE = ObsSession(
                root_name=self.label, log_events=self._outer.log_events
            )
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        if self._outer is not None and _ACTIVE is not None:
            session = _ACTIVE
            counters = session.registry.export_counters()
            if session.log_events:
                session.events.append(("snapshot", self.label, counters))
            self.export = {
                "counters": counters,
                "histograms": session.registry.export_histograms(),
                "spans": session.export()["spans"],
                "events": session.events,
            }
        _ACTIVE = self._outer


def shard_capture(label: str) -> _ShardCapture:
    """Capture one shard's metrics under ``label`` (no-op if disabled)."""
    return _ShardCapture(label)


def absorb_shard(export: Optional[Dict[str, Any]]) -> None:
    """Fold a shard capture back into the active session.

    Counters merge by summation; the shard's span tree is grafted under
    the currently open span.  Callers iterate shards in index order, so
    absorbed output is deterministic for a fixed ``(seed, n_shards)``.
    """
    session = _ACTIVE
    if session is None or export is None:
        return
    session.registry.merge_counters(export["counters"])
    for name in sorted(export.get("histograms", {})):
        session.registry.merge_histogram(
            name, LatencyHistogram.from_dict(export["histograms"][name])
        )
    session.stack[-1].graft(SpanNode.from_dict(export["spans"]))
    if session.log_events:
        session.events.extend(
            (str(kind), str(name), value)
            for kind, name, value in export.get("events", ())
        )


__all__ = [
    "ObsSession",
    "ROOT_SPAN",
    "SCHEMA",
    "absorb_shard",
    "add",
    "current",
    "disable",
    "enable",
    "is_enabled",
    "log_event",
    "merge_histogram",
    "observe",
    "observed",
    "set_gauge",
    "shard_capture",
    "span",
]
