"""Admission control, load shedding, and the overload simulation.

The open-loop harness (:mod:`repro.serve.load`) measures service times
overload-blind; everything overload does to a schedule — rate limiting,
queue-pressure shedding, deadline accounting — is *simulated* here,
parent-side, as a pure function of ``(policy, schedule, service-time
buckets, fault plan)``.  That split is what keeps the overload report
byte-identical across worker counts (``docs/serving.md``):

1. **Token bucket.**  A deterministic rate limiter refilled from the
   arrival offsets themselves: a request arriving when no whole token
   is available is shed as ``rate_limited`` and never touches the
   queue.
2. **Bounded admission queue.**  The single-server priority queue of
   :func:`repro.serve.load.simulate_queue` grows a depth bound.  At
   each arrival the simulated depth is folded into a coarse
   ``queue_depth_bucket`` and the request is shed with a probability
   that rises with the bucket — modulated so batch sheds before
   interactive and low priority before high.  The *decision* itself is
   a pure sha256 function of ``(seed, request_id, queue_depth_bucket)``
   (:func:`shed_decision`), mirroring the engine's trace sampler, so
   no RNG state and no execution order is involved.  A full queue
   sheds unconditionally.  Both causes count as ``queue_full`` sheds.
3. **Deadlines.**  Each admitted request's simulated latency — plus
   any ``slow_phase`` fault delay addressed to it — is compared
   against its query's ``deadline_ms``; misses are reported as the
   deadline-exceeded set, never as answers.

:class:`RetryingClient` is the harness-side consumer of the engine's
overload-safe path: it drives :meth:`repro.serve.engine.ServeEngine.execute`
with attempt-addressed faults and *records* the pure backoff schedule
of :meth:`repro.resilience.retry.RetryPolicy.request_backoff_s`
instead of sleeping it.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro._units import MILLIS_PER_SECOND
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.serve.workload import PRIORITY_VALUES

#: Queue-depth buckets the shed hash can see (0 = empty .. 4 = full).
N_DEPTH_BUCKETS = 5

#: Base shed probability per depth bucket; rises with queue pressure.
_BUCKET_SHED_PROB = (0.0, 0.0, 0.25, 0.5, 1.0)

#: Mode modulation: batch sheds before interactive.
_MODE_SHED_FACTOR = {"interactive": 0.5, "batch": 1.5}

#: Priority modulation: low sheds before high.
_PRIORITY_SHED_FACTOR = {"low": 1.5, "mid": 1.0, "high": 0.5}

#: Shed causes (the closed set the report and metrics use).
SHED_CAUSES = ("rate_limited", "queue_full")


@dataclass(frozen=True)
class OverloadPolicy:
    """Admission-control parameters of one overload run."""

    #: Seed of the pure shed hash (independent of the workload seed).
    seed: int = 0
    #: Maximum simulated queue depth; arrivals beyond it always shed.
    queue_capacity: int = 64
    #: Token-bucket refill rate (requests per second).
    tokens_per_s: float = 1000.0
    #: Token-bucket burst capacity (whole tokens).
    token_burst: float = 100.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.tokens_per_s <= 0:
            raise ValueError(
                f"tokens_per_s must be > 0, got {self.tokens_per_s}"
            )
        if self.token_burst < 1:
            raise ValueError(
                f"token_burst must be >= 1, got {self.token_burst}"
            )


def queue_depth_bucket(depth: int, capacity: int) -> int:
    """Fold a queue depth into one of :data:`N_DEPTH_BUCKETS` buckets.

    Coarse on purpose: the shed hash must see the same bucket for the
    same schedule regardless of float noise in the simulation, and a
    handful of buckets keeps the decision table auditable.
    """
    if depth >= capacity:
        return N_DEPTH_BUCKETS - 1
    return min(
        N_DEPTH_BUCKETS - 1, (depth * N_DEPTH_BUCKETS) // max(capacity, 1)
    )


def shed_probability(depth_bucket: int, mode: str, priority: str) -> float:
    """The effective shed probability for one request class.

    Base probability by depth bucket, scaled so batch sheds before
    interactive and low priority before high; clipped to [0, 1].
    """
    base = _BUCKET_SHED_PROB[min(depth_bucket, N_DEPTH_BUCKETS - 1)]
    scaled = (
        base * _MODE_SHED_FACTOR[mode] * _PRIORITY_SHED_FACTOR[priority]
    )
    return min(1.0, max(0.0, scaled))


def shed_decision(
    seed: int, request_id: str, depth_bucket: int, probability: float
) -> bool:
    """Pure sha256 shed decision over ``(seed, request_id, bucket)``.

    The same construction as the engine's trace sampler: hash the
    address, compare the first 8 bytes against the probability scaled
    to 2**64.  No RNG state, no arrival order, no worker count — the
    shed set is identical for any partitioning of the schedule.
    """
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    digest = hashlib.sha256(
        f"{seed}:{request_id}:{depth_bucket}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") < int(probability * 2.0**64)


@dataclass
class OverloadOutcome:
    """Per-request verdicts of one simulated overload pass."""

    #: Whether each request was admitted (scheduled order).
    admitted: List[bool]
    #: Shed cause per request (``None`` for admitted ones).
    shed_cause: List[Optional[str]]
    #: Depth bucket the shed hash saw at each arrival.
    depth_buckets: List[int]
    #: Simulated queue latency per admitted request (0.0 for shed).
    latencies_s: np.ndarray
    #: Requests whose latency (plus injected delay) broke their budget.
    deadline_exceeded: List[bool]

    @property
    def n_shed(self) -> int:
        return sum(1 for cause in self.shed_cause if cause is not None)

    def shed_count(self, cause: str) -> int:
        if cause not in SHED_CAUSES:
            raise ValueError(f"unknown shed cause {cause!r}")
        return sum(1 for c in self.shed_cause if c == cause)


def simulate_overload(
    policy: OverloadPolicy,
    arrivals_s: np.ndarray,
    service_s: np.ndarray,
    modes: Sequence[str],
    priorities: Sequence[str],
    request_ids: Sequence[str],
    deadlines_s: Sequence[Optional[float]],
    fault_plan: Optional[FaultPlan] = None,
) -> OverloadOutcome:
    """One event-driven pass of admission control over a schedule.

    Pure: the only inputs are the policy, the schedule, the (already
    quantized) service times, and the fault plan.  The queue discipline
    is exactly :func:`repro.serve.load.simulate_queue`'s — interactive
    before batch, higher priority first, FIFO within a class — with a
    depth bound and per-arrival shed decisions layered on top.
    ``slow_phase`` faults charge their delay onto the affected
    request's latency before the deadline comparison (nothing sleeps).
    """
    n = len(arrivals_s)
    admitted = [False] * n
    shed_cause: List[Optional[str]] = [None] * n
    depth_buckets = [0] * n
    latencies = np.zeros(n, dtype=np.float64)
    deadline_exceeded = [False] * n
    if n == 0:
        return OverloadOutcome(
            admitted, shed_cause, depth_buckets, latencies, deadline_exceeded
        )

    order = np.argsort(arrivals_s, kind="stable")
    # Single server + bounded waiting room; ``waiting`` holds admitted
    # requests not yet started, keyed like simulate_queue's heap.
    waiting: List[Tuple[int, int, float, int]] = []
    server_free = 0.0
    tokens = float(policy.token_burst)
    last_refill = 0.0

    def start_waiting(until: float) -> None:
        """Start every waiting request whose service begins by ``until``."""
        nonlocal server_free
        while waiting and server_free <= until:
            i = heapq.heappop(waiting)[-1]
            start = max(server_free, float(arrivals_s[i]))
            server_free = start + float(service_s[i])
            latencies[i] = server_free - float(arrivals_s[i])

    for raw in order:
        i = int(raw)
        t = float(arrivals_s[i])
        start_waiting(t)
        depth = len(waiting) + (1 if server_free > t else 0)
        bucket = queue_depth_bucket(depth, policy.queue_capacity)
        depth_buckets[i] = bucket

        # 1. token bucket — refilled from the arrival clock itself.
        tokens = min(
            float(policy.token_burst),
            tokens + (t - last_refill) * policy.tokens_per_s,
        )
        last_refill = t
        if tokens < 1.0:
            shed_cause[i] = "rate_limited"
            continue

        # 2. queue pressure — hard bound, then the pure shed hash.
        if depth >= policy.queue_capacity:
            shed_cause[i] = "queue_full"
            continue
        probability = shed_probability(bucket, modes[i], priorities[i])
        if shed_decision(policy.seed, request_ids[i], bucket, probability):
            shed_cause[i] = "queue_full"
            continue

        tokens -= 1.0
        admitted[i] = True
        heapq.heappush(
            waiting,
            (
                0 if modes[i] == "interactive" else 1,
                -PRIORITY_VALUES[priorities[i]],
                t,
                i,
            ),
        )
    start_waiting(float("inf"))

    for i in range(n):
        if not admitted[i]:
            continue
        deadline_s = deadlines_s[i]
        if deadline_s is None:
            continue
        charged = latencies[i]
        if fault_plan is not None:
            for fault in fault_plan.serve_faults_for(request_ids[i]):
                if fault.kind == "slow_phase":
                    charged += fault.delay_ms / MILLIS_PER_SECOND
        if charged > deadline_s:
            deadline_exceeded[i] = True

    return OverloadOutcome(
        admitted, shed_cause, depth_buckets, latencies, deadline_exceeded
    )


@dataclass
class ClientOutcome:
    """What one retried request came back with."""

    result: Any
    attempts: int
    #: Sum of the recorded (never slept) backoff schedule, seconds.
    backoff_s: float


class RetryingClient:
    """Retrying wrapper over the engine's overload-safe request path.

    Retries ``unavailable`` answers — the transient fault class a
    retry can beat, since fault plans address ``(request_id,
    attempt)`` and an attempt-0 fault does not re-fire on attempt 1.
    The backoff schedule is the pure
    :meth:`~repro.resilience.retry.RetryPolicy.request_backoff_s`
    function; it is *recorded* on the outcome, never slept, so the
    chaos harness stays wall-clock free on the decision path.
    """

    #: Result statuses worth retrying.
    RETRYABLE = ("unavailable",)

    def __init__(
        self,
        engine: Any,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ):
        self.engine = engine
        self.policy = policy if policy is not None else RetryPolicy()
        self.seed = seed

    def execute(self, query: Any, request_id: str) -> ClientOutcome:
        backoff_total = 0.0
        result = None
        attempts = 0
        for attempt in range(self.policy.max_attempts):
            attempts = attempt + 1
            result = self.engine.execute(
                query, request_id=request_id, attempt=attempt
            )
            if result.status not in self.RETRYABLE:
                break
            if attempt + 1 < self.policy.max_attempts:
                backoff_total += self.policy.request_backoff_s(
                    self.seed, request_id, attempt + 1
                )
        return ClientOutcome(
            result=result, attempts=attempts, backoff_s=backoff_total
        )


__all__ = [
    "ClientOutcome",
    "N_DEPTH_BUCKETS",
    "OverloadOutcome",
    "OverloadPolicy",
    "RetryingClient",
    "SHED_CAUSES",
    "queue_depth_bucket",
    "shed_decision",
    "shed_probability",
    "simulate_overload",
]
