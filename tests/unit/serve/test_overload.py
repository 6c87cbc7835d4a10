"""Overload safety: admission control, deadlines, degraded answers."""

import hashlib
import itertools

import numpy as np
import pytest

from repro import obs
from repro._rng import as_generator
from repro.obs import clock
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.serve.engine import ServeEngine, ServeResult
from repro.serve.health import HEALTH_STATES, ServeHealth
from repro.serve.overload import (
    N_DEPTH_BUCKETS,
    OverloadPolicy,
    RetryingClient,
    queue_depth_bucket,
    shed_decision,
    shed_probability,
    simulate_overload,
)
from repro.serve.queries import Query


class TestOverloadPolicy:
    def test_defaults_are_valid(self):
        policy = OverloadPolicy()
        assert policy.queue_capacity >= 1
        assert policy.tokens_per_s > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"tokens_per_s": 0.0},
            {"tokens_per_s": -5.0},
            {"token_burst": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)


class TestDepthBucket:
    def test_empty_queue_is_bucket_zero(self):
        assert queue_depth_bucket(0, 64) == 0

    def test_full_queue_is_the_last_bucket(self):
        assert queue_depth_bucket(64, 64) == N_DEPTH_BUCKETS - 1
        assert queue_depth_bucket(100, 64) == N_DEPTH_BUCKETS - 1

    def test_monotone_in_depth(self):
        buckets = [queue_depth_bucket(d, 64) for d in range(65)]
        assert buckets == sorted(buckets)


class TestShedProbability:
    def test_empty_queue_never_sheds(self):
        for mode in ("interactive", "batch"):
            for priority in ("low", "mid", "high"):
                assert shed_probability(0, mode, priority) == 0.0

    def test_batch_sheds_before_interactive(self):
        for bucket in range(1, N_DEPTH_BUCKETS):
            assert shed_probability(bucket, "batch", "mid") >= (
                shed_probability(bucket, "interactive", "mid")
            )

    def test_low_priority_sheds_before_high(self):
        for bucket in range(1, N_DEPTH_BUCKETS):
            assert shed_probability(bucket, "batch", "low") >= (
                shed_probability(bucket, "batch", "high")
            )

    def test_clipped_to_unit_interval(self):
        for bucket in range(N_DEPTH_BUCKETS):
            for mode in ("interactive", "batch"):
                for priority in ("low", "mid", "high"):
                    p = shed_probability(bucket, mode, priority)
                    assert 0.0 <= p <= 1.0

    def test_full_bucket_always_sheds_at_base(self):
        assert shed_probability(N_DEPTH_BUCKETS - 1, "batch", "mid") == 1.0


class TestShedDecision:
    def test_probability_extremes(self):
        assert shed_decision(0, "req-0", 3, 0.0) is False
        assert shed_decision(0, "req-0", 3, 1.0) is True

    def test_matches_the_documented_hash(self):
        digest = hashlib.sha256(b"7:req-000042:2").digest()
        expected = int.from_bytes(digest[:8], "big") < int(0.5 * 2.0**64)
        assert shed_decision(7, "req-000042", 2, 0.5) is expected

    def test_pure_function_of_the_address(self):
        first = [shed_decision(3, f"req-{i}", 2, 0.5) for i in range(200)]
        second = [shed_decision(3, f"req-{i}", 2, 0.5) for i in range(200)]
        assert first == second
        # And at p=0.5 both verdicts actually occur.
        assert any(first) and not all(first)

    def test_seed_changes_the_shed_set(self):
        a = [shed_decision(0, f"req-{i}", 2, 0.5) for i in range(200)]
        b = [shed_decision(1, f"req-{i}", 2, 0.5) for i in range(200)]
        assert a != b


def _uniform_schedule(n, spacing_s=0.001, service=0.01):
    arrivals = np.arange(n, dtype=np.float64) * spacing_s
    service_s = np.full(n, service)
    modes = ["interactive"] * n
    priorities = ["mid"] * n
    rids = [f"req-{i:06d}" for i in range(n)]
    return arrivals, service_s, modes, priorities, rids


class TestSimulateOverload:
    def test_empty_schedule(self):
        outcome = simulate_overload(
            OverloadPolicy(), np.array([]), np.array([]), [], [], [], []
        )
        assert outcome.admitted == []
        assert outcome.n_shed == 0

    def test_unloaded_schedule_admits_everything(self):
        arrivals, service, modes, priorities, rids = _uniform_schedule(
            20, spacing_s=1.0, service=0.001
        )
        outcome = simulate_overload(
            OverloadPolicy(),
            arrivals,
            service,
            modes,
            priorities,
            rids,
            [None] * 20,
        )
        assert all(outcome.admitted)
        assert outcome.n_shed == 0
        # An idle server answers in exactly the service time.
        assert outcome.latencies_s[5] == pytest.approx(0.001)

    def test_token_bucket_rate_limits(self):
        # 100 arrivals in 0.1 s against a 10-token budget (burst 10,
        # refill 1/s): at most a handful beyond the burst get through.
        arrivals, service, modes, priorities, rids = _uniform_schedule(
            100, spacing_s=0.001, service=1e-6
        )
        policy = OverloadPolicy(tokens_per_s=1.0, token_burst=10.0)
        outcome = simulate_overload(
            policy, arrivals, service, modes, priorities, rids, [None] * 100
        )
        assert outcome.shed_count("rate_limited") >= 85
        assert sum(outcome.admitted) <= 12

    def test_bounded_queue_sheds_at_capacity(self):
        # Service is so slow the queue can only ever drain one request;
        # with capacity 2 everything past the first few must shed.
        arrivals, service, modes, priorities, rids = _uniform_schedule(
            50, spacing_s=0.001, service=10.0
        )
        policy = OverloadPolicy(queue_capacity=2)
        outcome = simulate_overload(
            policy, arrivals, service, modes, priorities, rids, [None] * 50
        )
        assert outcome.shed_count("queue_full") >= 40
        depth_seen = max(outcome.depth_buckets)
        assert depth_seen == N_DEPTH_BUCKETS - 1

    def test_deadline_exceeded_from_queueing(self):
        # Second request waits behind the first: latency 2*service.
        arrivals = np.array([0.0, 0.0])
        service = np.array([0.05, 0.05])
        outcome = simulate_overload(
            OverloadPolicy(),
            arrivals,
            service,
            ["interactive"] * 2,
            ["mid"] * 2,
            ["req-0", "req-1"],
            [0.06, 0.06],
        )
        assert outcome.deadline_exceeded == [False, True]

    def test_slow_phase_fault_charges_the_budget(self):
        arrivals = np.array([0.0])
        service = np.array([0.01])
        plan = FaultPlan(
            [
                FaultSpec(
                    kind="slow_phase",
                    request_id="req-0",
                    stage="index_scan",
                    delay_ms=100.0,
                )
            ]
        )
        without = simulate_overload(
            OverloadPolicy(),
            arrivals,
            service,
            ["interactive"],
            ["mid"],
            ["req-0"],
            [0.05],
        )
        with_fault = simulate_overload(
            OverloadPolicy(),
            arrivals,
            service,
            ["interactive"],
            ["mid"],
            ["req-0"],
            [0.05],
            fault_plan=plan,
        )
        assert without.deadline_exceeded == [False]
        assert with_fault.deadline_exceeded == [True]

    def test_outcome_is_order_independent(self):
        # Same schedule presented in two different array orders: the
        # per-request verdicts must match (arrivals are argsorted).
        arrivals, service, modes, priorities, rids = _uniform_schedule(
            60, spacing_s=0.002, service=0.02
        )
        policy = OverloadPolicy(queue_capacity=3, tokens_per_s=100.0)
        forward = simulate_overload(
            policy, arrivals, service, modes, priorities, rids, [None] * 60
        )
        perm = as_generator(5).permutation(60)
        shuffled = simulate_overload(
            policy,
            arrivals[perm],
            service[perm],
            [modes[i] for i in perm],
            [priorities[i] for i in perm],
            [rids[i] for i in perm],
            [None] * 60,
        )
        for new_index, old_index in enumerate(perm):
            assert shuffled.admitted[new_index] == forward.admitted[old_index]
            assert (
                shuffled.shed_cause[new_index]
                == forward.shed_cause[old_index]
            )

    def test_shedding_grows_with_offered_load(self):
        # Fixed service times well inside the server's capacity, so only
        # the offered rate differs: 1x the token rate is admitted in
        # full, 4x must shed a strictly larger fraction without
        # collapsing to zero admissions.
        policy = OverloadPolicy(tokens_per_s=1000.0)
        n = 400
        shed = {}
        for multiplier in (1, 4):
            spacing_s = 1.0 / (multiplier * policy.tokens_per_s)
            arrivals, service, modes, priorities, rids = _uniform_schedule(
                n, spacing_s=spacing_s, service=1e-4
            )
            outcome = simulate_overload(
                policy, arrivals, service, modes, priorities, rids, [None] * n
            )
            shed[multiplier] = outcome.n_shed / n
        assert shed[1] == 0.0
        assert shed[1] < shed[4] < 1.0


class TestServeHealth:
    def test_starts_ok(self):
        health = ServeHealth()
        assert health.state == "ok"
        assert health.level == 0

    def test_ratchets_upward_only(self):
        health = ServeHealth()
        assert health.note("degraded") is True
        assert health.note("ok") is False
        assert health.state == "degraded"
        assert health.note("shedding") is True
        assert health.note("degraded") is False
        assert health.state == "shedding"
        assert health.transitions == 2

    def test_reset_starts_a_fresh_window(self):
        health = ServeHealth()
        health.note("shedding")
        health.reset()
        assert health.state == "ok"

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            ServeHealth().note("on-fire")

    def test_transitions_land_in_the_metrics_contract(self):
        with obs.observed() as session:
            health = ServeHealth()
            health.note("degraded")
            health.note("shedding")
            dump = session.export()
        assert dump["counters"]["serve.health.transitions"] == 2
        assert dump["gauges"]["serve.health.state"] == 2

    def test_ladder_is_the_declared_tuple(self):
        assert HEALTH_STATES == ("ok", "degraded", "shedding")


class TestRequestBackoff:
    def test_deterministic_per_request(self):
        policy = RetryPolicy(backoff_base_s=0.05)
        a = policy.request_backoff_s(7, "req-000001", 1)
        assert a == policy.request_backoff_s(7, "req-000001", 1)
        assert a > 0

    def test_matches_the_hashed_attempt_index(self):
        policy = RetryPolicy(backoff_base_s=0.05)
        digest = hashlib.sha256(b"req-000001").digest()
        index = int.from_bytes(digest[:4], "big")
        assert policy.request_backoff_s(7, "req-000001", 2) == (
            policy.backoff_s(7, index, 2)
        )

    def test_varies_across_requests(self):
        policy = RetryPolicy(backoff_base_s=0.05)
        values = {
            policy.request_backoff_s(7, f"req-{i}", 1) for i in range(16)
        }
        assert len(values) > 1

    def test_zero_base_records_zero(self):
        # The default policy computes a schedule of zeros: the harness
        # never sleeps unless a base is opted into.
        assert RetryPolicy().request_backoff_s(7, "req-1", 1) == 0.0


@pytest.fixture()
def fake_clock(monkeypatch):
    counter = itertools.count()
    monkeypatch.setattr(clock, "now_s", lambda: next(counter) * 1e-4)


class TestEngineExecute:
    def _query(self, dataset, deadline_ms=None):
        return Query(
            family="point",
            commune=0,
            service=dataset.head_names[0],
            hour=0,
            deadline_ms=deadline_ms,
        )

    def test_plain_query_matches_query_encoded(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        query = self._query(volume_dataset)
        result = engine.execute(query)
        assert isinstance(result, ServeResult)
        assert result.ok
        assert result.encoded == engine.query_encoded(query)

    def test_generous_deadline_answers_fresh(
        self, volume_dataset, fake_clock
    ):
        engine = ServeEngine(volume_dataset)
        result = engine.execute(self._query(volume_dataset, deadline_ms=1e6))
        assert result.status == "ok"

    def test_spent_budget_returns_typed_answer(
        self, volume_dataset, fake_clock
    ):
        # Under the fake clock every phase boundary costs 0.1 ms, so a
        # 0.05 ms budget expires at the very first check — a pure
        # function of the clock schedule, not wall time.
        engine = ServeEngine(volume_dataset)
        result = engine.execute(
            self._query(volume_dataset, deadline_ms=0.05)
        )
        assert result.status == "deadline_exceeded"
        assert result.deadline is not None
        assert result.deadline.phase == "parse"
        assert '"error":"deadline_exceeded"' in result.encoded

    def test_deadline_hits_are_deterministic(self, volume_dataset, fake_clock):
        engine = ServeEngine(volume_dataset)
        first = engine.execute(self._query(volume_dataset, deadline_ms=0.05))
        second = engine.execute(self._query(volume_dataset, deadline_ms=0.05))
        assert first == second

    def test_deadline_exceeded_counts(self, volume_dataset, fake_clock):
        engine = ServeEngine(volume_dataset)
        with obs.observed() as session:
            engine.execute(self._query(volume_dataset, deadline_ms=0.05))
            counters = session.export()["counters"]
        assert counters["serve.deadline_exceeded"] == 1

    def test_invalid_query_is_typed_not_raised(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        result = engine.execute(
            Query(family="point", commune=-1, service="nope", hour=0)
        )
        assert result.status == "invalid"
        assert not result.ok

    def test_slow_phase_fault_charges_without_sleeping(
        self, volume_dataset, fake_clock
    ):
        engine = ServeEngine(volume_dataset)
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="slow_phase",
                        request_id="req-7",
                        stage="index_scan",
                        delay_ms=500.0,
                    )
                ]
            )
        )
        # 10 ms budget: survives the fake clock's microsecond phases
        # but not the injected 500 ms charge at index_scan.
        query = self._query(volume_dataset, deadline_ms=10.0)
        hit = engine.execute(query, request_id="req-7")
        assert hit.status == "deadline_exceeded"
        assert hit.deadline.phase == "index_scan"
        # Other requests are unaffected (fault is request-addressed).
        miss = engine.execute(query, request_id="req-8")
        assert miss.status == "ok"

    def test_index_unavailable_degrades_to_stale(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        query = self._query(volume_dataset)
        fresh = engine.execute(query, request_id="warm")  # populates cache
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="index_unavailable",
                        request_id="req-9",
                        stage="index_scan",
                    )
                ]
            )
        )
        result = engine.execute(query, request_id="req-9")
        assert result.status == "stale"
        assert result.stale
        assert '"stale":true' in result.encoded
        # The stale body is the cached answer plus the stamp.
        assert result.encoded != fresh.encoded
        assert engine.health.state == "degraded"

    def test_index_unavailable_without_cache_is_typed(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="index_unavailable",
                        request_id="req-9",
                        stage="index_scan",
                    )
                ]
            )
        )
        result = engine.execute(
            self._query(volume_dataset), request_id="req-9"
        )
        assert result.status == "unavailable"
        assert '"error":"index_unavailable"' in result.encoded

    def test_corrupt_cache_entry_detected_never_served(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        query = self._query(volume_dataset)
        fresh = engine.execute(query, request_id="warm")
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="corrupt_cache_entry",
                        request_id="req-5",
                        stage="cache_lookup",
                    )
                ]
            )
        )
        with obs.observed() as session:
            result = engine.execute(query, request_id="req-5")
            counters = session.export()["counters"]
        # Detected, counted, recomputed: the answer is byte-identical
        # to the uncorrupted one, never the poisoned bytes.
        assert result.status == "ok"
        assert result.encoded == fresh.encoded
        assert counters["serve.cache.corrupt_detected"] == 1

    def test_attempt_addressed_fault_does_not_refire(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="index_unavailable",
                        request_id="req-1",
                        attempt=0,
                        stage="index_scan",
                    )
                ]
            )
        )
        query = self._query(volume_dataset)
        assert engine.execute(query, request_id="req-1").status == (
            "unavailable"
        )
        assert engine.execute(
            query, request_id="req-1", attempt=1
        ).status == "ok"


class TestRetryingClient:
    def test_retries_unavailable_to_success(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        engine.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        kind="index_unavailable",
                        request_id="req-1",
                        attempt=0,
                        stage="index_scan",
                    )
                ]
            )
        )
        client = RetryingClient(
            engine, policy=RetryPolicy(backoff_base_s=0.05), seed=7
        )
        query = Query(
            family="point",
            commune=0,
            service=volume_dataset.head_names[0],
            hour=0,
        )
        outcome = client.execute(query, "req-1")
        assert outcome.result.status == "ok"
        assert outcome.attempts == 2
        assert outcome.backoff_s == pytest.approx(
            client.policy.request_backoff_s(7, "req-1", 1)
        )
        assert outcome.backoff_s > 0.0

    def test_no_retry_on_first_success(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        client = RetryingClient(engine)
        query = Query(
            family="point",
            commune=0,
            service=volume_dataset.head_names[0],
            hour=0,
        )
        outcome = client.execute(query, "req-2")
        assert outcome.attempts == 1
        assert outcome.backoff_s == 0.0

    def test_gives_up_after_max_attempts(self, volume_dataset):
        engine = ServeEngine(volume_dataset)
        policy = RetryPolicy(max_attempts=3)
        faults = [
            FaultSpec(
                kind="index_unavailable",
                request_id="req-3",
                attempt=attempt,
                stage="index_scan",
            )
            for attempt in range(3)
        ]
        engine.install_faults(FaultPlan(faults))
        client = RetryingClient(engine, policy=policy, seed=7)
        query = Query(
            family="point",
            commune=0,
            service=volume_dataset.head_names[0],
            hour=0,
        )
        outcome = client.execute(query, "req-3")
        assert outcome.result.status == "unavailable"
        assert outcome.attempts == 3
