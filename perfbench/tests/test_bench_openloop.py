from types import SimpleNamespace

import pytest

from workloads import closed_loop, open_loop, rescale

SERVICE_S = 10e-6
STALL_S = 1e-3
GAP_S = 100e-6
READ_S = 1e-9


class FakeClock:
    """Each read advances time by 1 ns; ``execute`` advances it by its cost."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += READ_S
        return self.t


def fake_server(clock):
    def execute(query, request_id=None):
        clock.t += STALL_S if query == "stall" else SERVICE_S
        return SimpleNamespace(encoded=f"{query}:{request_id}", status="ok")

    return execute


def test_stall_delays_later_requests_and_shows_in_their_latency():
    clock = FakeClock()
    queries = ["q"] * 3 + ["stall"] + ["q"] * 6
    ids = [f"r{i}" for i in range(len(queries))]
    due = [i * GAP_S for i in range(len(queries))]
    answers, statuses, latency, late = open_loop(
        fake_server(clock), queries, ids, due, clock=clock
    )
    assert answers[4] == "q:r4" and statuses == ["ok"] * len(queries)
    # Before the stall the server keeps up: latency is the service time.
    for i in range(3):
        assert latency[i] == pytest.approx(SERVICE_S, abs=1e-7)
        assert late[i] == pytest.approx(0.0, abs=1e-7)
    assert latency[3] == pytest.approx(STALL_S, abs=1e-7)
    # Requests due during the stall are sent late, and their latency,
    # timed from the due time, carries the wait; the backlog drains by
    # GAP_S - SERVICE_S per request.
    backlog = STALL_S - GAP_S
    for i in range(4, len(queries)):
        expected_late = backlog - (i - 4) * (GAP_S - SERVICE_S)
        assert late[i] == pytest.approx(expected_late, abs=1e-7)
        assert latency[i] == pytest.approx(expected_late + SERVICE_S, abs=1e-7)
    assert latency[4] > latency[5] > latency[9] > SERVICE_S


def test_open_loop_waits_for_due_times():
    clock = FakeClock()
    start = clock.t
    open_loop(fake_server(clock), ["q", "q"], ["a", "b"], [0.0, 2e-4], clock=clock)
    assert clock.t - start == pytest.approx(2e-4 + SERVICE_S, abs=1e-7)


def test_closed_loop_sends_back_to_back():
    clock = FakeClock()
    answers, statuses, latency = closed_loop(
        fake_server(clock), ["x", "stall", "y"], ["1", "2", "3"], clock=clock
    )
    assert answers == ["x:1", "stall:2", "y:3"] and statuses == ["ok"] * 3
    # Nothing waits behind the stall: each request is timed from the
    # previous answer, so only the stalled request is slow.
    assert latency == pytest.approx([SERVICE_S, STALL_S, SERVICE_S], abs=1e-7)
    assert clock.t == pytest.approx(2 * SERVICE_S + STALL_S, abs=1e-7)


def test_rescale_keeps_shape_and_sets_rate():
    offsets_ms = [1000.0, 1100.0, 1400.0, 2000.0]
    due = rescale(offsets_ms, rate=8.0)
    assert due[0] == 0.0
    assert due[-1] == pytest.approx(len(offsets_ms) / 8.0)
    assert due[1] / due[-1] == pytest.approx(0.1)
