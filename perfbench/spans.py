"""In-memory, outside-in span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: the traced run
patches a public function or method of the program with a wrapper that
opens a span on entry and closes it on exit, then calls the program
exactly as an untraced run does.  Each span holds its name, start, end,
the index of the span that was open when it began (its parent), and an
optional request id shared by the spans of one served request.

:func:`breakdown` turns a finished recording into self times.  A
span's self time is its duration minus the part its children cover;
the self time of a root span — wall time no layer span accounts for —
is reported as the ``unattributed`` row.  The rows then sum to the
root wall by construction, so the reconciliation check catches a
recording whose children overlap or outlive their parent.

Not named ``trace.py``: ``python perfbench/run.py`` puts this directory
first on ``sys.path``, where that name would shadow the stdlib module.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

#: Name of the row that receives the self time of root spans.
UNATTRIBUTED = "unattributed"

#: Largest allowed mismatch between summed self times and root wall.
RECONCILE_TOLERANCE = 0.01

Namer = Union[str, Callable[..., str]]


class SpanError(ValueError):
    """A recording whose spans do not nest or do not reconcile."""


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recording, -1 for a root.
    parent: int
    request: Optional[str] = None


class SpanRecorder:
    """Records nested spans in memory; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._open: List[int] = []
        # [name, start, end, parent, request] rows, in start order.
        self._rows: List[list] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    def begin(self, name: str, request: Optional[str] = None) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self._rows)
        self._rows.append([name, self.clock(), None, parent, request])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise SpanError(f"span {self._rows[index][0]!r} closed out of order")
        self._open.pop()
        self._rows[index][2] = self.clock()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        index = self.begin(name, request)
        try:
            yield
        finally:
            self.end(index)

    def spans(self) -> List[Span]:
        """The finished spans; raises if any is still open."""
        if self._open:
            raise SpanError(f"{len(self._open)} span(s) still open")
        return [Span(*row) for row in self._rows]

    def wrap(
        self,
        fn: Callable,
        name: Namer,
        request: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``name``/``request`` may derive from the args."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(
                name if isinstance(name, str) else name(*args, **kwargs),
                request(*args, **kwargs) if request is not None else None,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: Namer,
        request: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class's method)."""
        original = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(original, (classmethod, staticmethod)):
            patched = type(original)(self.wrap(original.__func__, name, request))
        else:
            patched = self.wrap(original, name, request)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: Union[str, Path]) -> None:
        """Write the recording as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time; raises :class:`SpanError` on bad nesting."""
    covered = [0.0] * len(spans)
    last_child_end: Dict[int, float] = {}
    for index, span in enumerate(spans):
        if span.end < span.start:
            raise SpanError(f"span {span.name!r} ends before it starts")
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end:
            raise SpanError(
                f"span {span.name!r} [{span.start}, {span.end}] exceeds "
                f"its parent {parent.name!r} [{parent.start}, {parent.end}]"
            )
        if span.start < last_child_end.get(span.parent, parent.start):
            raise SpanError(
                f"span {span.name!r} overlaps an earlier child of {parent.name!r}"
            )
        last_child_end[span.parent] = span.end
        covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def breakdown(spans: List[Span]) -> Tuple[Dict[str, float], float]:
    """``({layer: self seconds, "unattributed": ...}, root wall seconds)``.

    A root span's own self time goes to :data:`UNATTRIBUTED`; every
    other span's self time goes to the row named after the span.
    Raises :class:`SpanError` when the rows miss the root wall by more
    than :data:`RECONCILE_TOLERANCE`.
    """
    rows: Dict[str, float] = defaultdict(float)
    rows[UNATTRIBUTED] = 0.0
    root_wall = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.parent < 0:
            root_wall += span.end - span.start
            rows[UNATTRIBUTED] += own
        else:
            rows[span.name] += own
    if not root_wall > 0.0:
        raise SpanError("recording has no root span with a duration")
    total = sum(rows.values())
    if abs(total - root_wall) > RECONCILE_TOLERANCE * root_wall:
        raise SpanError(
            f"self times sum to {total:.6f} s but the root wall is "
            f"{root_wall:.6f} s"
        )
    return dict(rows), root_wall


def request_phases(spans: List[Span]) -> Dict[str, List[float]]:
    """Per-request time of each phase: ``{name: [seconds per request]}``.

    A request is a span carrying a request id; its phases are its
    direct children (summed per name) plus its own self time under the
    request span's name.  Requests lacking a phase count it as zero.
    """
    own = self_times(spans)
    per_request: Dict[int, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span.request is not None:
            per_request[index] = {span.name: own[index]}
    for span in spans:
        phases = per_request.get(span.parent)
        if phases is not None:
            phases[span.name] = phases.get(span.name, 0.0) + span.end - span.start
    names = sorted({name for phases in per_request.values() for name in phases})
    return {
        name: [phases.get(name, 0.0) for phases in per_request.values()]
        for name in names
    }


__all__ = [
    "RECONCILE_TOLERANCE",
    "Span",
    "SpanError",
    "SpanRecorder",
    "UNATTRIBUTED",
    "breakdown",
    "request_phases",
    "self_times",
]
