import json
import types

import pytest

from spans import (
    UNATTRIBUTED,
    Span,
    SpanError,
    SpanRecorder,
    breakdown,
    request_phases,
    self_times,
)


class StepClock:
    """Reads 0, 1, 2, ... so every span boundary has a known time."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_subtracts_children_and_root_is_unattributed():
    rec = SpanRecorder(clock=StepClock())
    with rec.span("trial"):  # 0 .. 9
        with rec.span("a"):  # 1 .. 6
            with rec.span("b"):  # 2 .. 3
                pass
            with rec.span("b"):  # 4 .. 5
                pass
        with rec.span("c"):  # 7 .. 8
            pass
    spans = rec.spans()
    assert self_times(spans) == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    rows, wall = breakdown(spans)
    assert wall == 9.0
    assert rows == {UNATTRIBUTED: 3.0, "a": 3.0, "b": 2.0, "c": 1.0}
    assert sum(rows.values()) == wall


def test_child_outliving_parent_fails():
    spans = [Span("trial", 0.0, 5.0, -1), Span("a", 1.0, 6.0, 0)]
    with pytest.raises(SpanError, match="exceeds"):
        breakdown(spans)


def test_overlapping_siblings_fail():
    spans = [
        Span("trial", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 4.0, 6.0, 0),
    ]
    with pytest.raises(SpanError, match="overlaps"):
        breakdown(spans)


def test_reconciliation_needs_a_root():
    with pytest.raises(SpanError):
        breakdown([])


def test_spans_closed_out_of_order_or_left_open_fail():
    rec = SpanRecorder(clock=StepClock())
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(SpanError):
        rec.end(outer)
    with pytest.raises(SpanError):
        rec.spans()


class Widget:
    def work(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return x * 2


class Gadget(Widget):
    pass


def test_patch_wraps_functions_methods_and_classmethods_then_restores():
    module = types.ModuleType("fake_layer")
    module.compute = lambda x: x * 10
    original_work = Widget.work
    rec = SpanRecorder(clock=StepClock())
    rec.patch(module, "compute", "layer.compute")
    rec.patch(Widget, "work", lambda self, x: f"layer.work{x}")
    rec.patch(Widget, "make", "layer.make")
    rec.patch(Gadget, "work", "layer.gadget")
    with rec.span("trial"):
        assert module.compute(2) == 20
        assert Widget().work(3) == 4
        assert Widget.make(4) == 8
        assert Gadget().work(5) == 6
    assert [s.name for s in rec.spans()] == [
        "trial",
        "layer.compute",
        "layer.work3",
        "layer.make",
        "layer.gadget",
        "layer.work5",
    ]
    rec.restore()
    assert Widget.work is original_work
    assert "work" not in vars(Gadget)
    assert Widget.make(4) == 8 and module.compute(1) == 10
    assert len(rec.spans()) == 6


def test_request_phases_per_request():
    rec = SpanRecorder(clock=StepClock())
    run = rec.wrap(lambda rid: None, "req", request=lambda rid: rid)
    with rec.span("trial"):
        for rid in ("r1", "r2"):
            index = rec.begin("req", request=rid)
            with rec.span("parse"):
                pass
            rec.end(index)
        run("r3")
    phases = request_phases(rec.spans())
    # Each request span lasts 3 ticks with a 1-tick parse child; r3 has none.
    assert phases == {"parse": [1.0, 1.0, 0.0], "req": [2.0, 2.0, 1.0]}


def test_write_emits_one_json_line_per_span(tmp_path):
    rec = SpanRecorder(clock=StepClock())
    with rec.span("trial"):
        with rec.span("a", request="r1"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [
        {"name": "trial", "start": 0.0, "end": 3.0, "parent": -1, "request": None},
        {"name": "a", "start": 1.0, "end": 2.0, "parent": 0, "request": "r1"},
    ]
