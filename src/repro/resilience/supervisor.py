"""The supervised shard executor: retries, watchdog, resume, degrade.

Every sharded build runs its shards here, in-process or across a
forked pool, and every shard attempt runs under supervision:

- **typed failures** — an attempt that raises, times out, comes back
  corrupt, or reports dropped records becomes a :class:`ShardFailure`
  with a stable ``kind``, never a stack trace that kills the build;
- **bounded deterministic retries** — each shard gets
  ``policy.max_attempts`` tries; whether and what to retry depends only
  on attempt counts, and the backoff schedule is a pure function of
  ``(seed, shard_index, attempt)`` (:mod:`repro.resilience.retry`);
- **watchdog + worker recovery** — in pooled execution a per-shard
  deadline times out hung workers, dead workers (nonzero exit codes)
  are detected, and the pool is torn down and rebuilt before the next
  round so lost workers never wedge the build;
- **resume** — with a partial store
  (:class:`~repro.dataset.merge.SpillStore`) every accepted partial is
  written to disk once, atomically, and a resumed build loads the
  valid files instead of re-running their shards;
- **graceful degradation** — after exhaustion, ``policy.on_exhausted``
  either raises a structured :class:`ShardExecutionError` (``"fail"``)
  or quarantines the shard (``"quarantine"``) so the build completes
  with accounted, visible coverage loss.

Determinism: an attempt of shard ``i`` is a pure function of the plan
(:func:`repro.dataset.parallel.run_shard_attempt`; every draw is keyed,
see :mod:`repro._rng`), so retried, resumed, and undisturbed builds
produce bit-identical partials.  All ``resilience.*`` metrics and
retry/quarantine events are emitted on the parent after execution, in
shard-index order, so observability output never depends on worker
count or completion order.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dataset.merge import SpilledShardResult, SpillStore, partial_nbytes
from repro.dataset.parallel import (
    ShardPlan,
    ShardResult,
    WorkerContext,
    _init_worker,
    _worker_run_shard,
    run_shard_attempt,
)
from repro.obs import clock
from repro.resilience.faults import (
    FaultPlan,
    InjectedHangError,
)
from repro.resilience.retry import RetryPolicy

#: Result-poll interval of the pooled watchdog, seconds.  Wall-clock
#: (via the sanctioned obs clock) is only *measured* here — it decides
#: when to give up on a worker, never what the data contains.
POLL_S = 0.05

#: The closed set of failure kinds a shard attempt can be charged with.
FAILURE_KINDS = (
    "exception",
    "timeout",
    "crash",
    "corrupt",
    "dropped_records",
)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, typed and addressable."""

    shard_index: int
    attempt: int
    kind: str
    message: str

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r}; expected one of "
                f"{FAILURE_KINDS}"
            )


@dataclass
class ShardOutcome:
    """Everything that happened to one shard across its attempts."""

    shard_index: int
    result: Optional[ShardResult] = None
    attempts_executed: int = 0
    failures: List[ShardFailure] = field(default_factory=list)
    resumed: bool = False
    quarantined: bool = False


class ShardExecutionError(RuntimeError):
    """Raised under the ``fail`` policy when a shard exhausts retries."""

    def __init__(self, failures: Sequence[ShardFailure]):
        self.failures = list(failures)
        self.shard_indices = sorted({f.shard_index for f in self.failures})
        lines = [
            f"shard {f.shard_index} attempt {f.attempt}: "
            f"[{f.kind}] {f.message}"
            for f in self.failures
        ]
        super().__init__(
            f"{len(self.shard_indices)} shard(s) failed after retry "
            "exhaustion:\n" + "\n".join(lines)
        )


@dataclass
class ExecutionReport:
    """The supervised executor's full account of one build."""

    n_shards: int
    policy: RetryPolicy
    outcomes: List[ShardOutcome]
    #: Partials written to the store, and store files rejected on
    #: resume as damaged, foreign or of another schema.
    partials_written: int = 0
    partials_discarded: int = 0
    faults_injected: int = 0
    #: Partials not kept loaded under the store's resident budget.
    spills: int = 0
    resident_partial_bytes: int = 0

    @property
    def partials(self) -> List[Any]:
        """Accepted partials in shard-index order, *without* loading.

        Entries are either resident :class:`ShardResult` objects or
        compact :class:`SpilledShardResult` handles; both expose the
        accounting scalars (``sessions_generated``,
        ``records_dropped``, …) and ``obs_export``, so callers that only
        need bookkeeping never touch the disk.
        """
        return [
            o.result
            for o in self.outcomes
            if o.result is not None and not o.quarantined
        ]

    @property
    def results(self) -> List[ShardResult]:
        """Accepted shard partials, materialized, in shard-index order.

        Loads every spilled partial back into memory at once — fine for
        tests and small builds; bounded-memory callers should iterate
        :meth:`iter_results` instead.
        """
        return list(self.iter_results())

    def iter_results(self):
        """Accepted partials one at a time, loading spills lazily.

        The bounded-memory merge path: only one spilled partial is
        resident beyond the caller's own references at any moment.
        """
        for partial in self.partials:
            if isinstance(partial, SpilledShardResult):
                yield partial.load()
            else:
                yield partial

    @property
    def quarantined_indices(self) -> List[int]:
        return [o.shard_index for o in self.outcomes if o.quarantined]

    @property
    def failures(self) -> List[ShardFailure]:
        """Every recorded failure, ordered by (shard_index, attempt)."""
        return [f for o in self.outcomes for f in o.failures]

    @property
    def attempts_executed(self) -> int:
        return sum(o.attempts_executed for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(max(0, o.attempts_executed - 1) for o in self.outcomes)

    @property
    def partials_resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    @property
    def records_dropped(self) -> int:
        """Records lost inside accepted (non-quarantined) shards."""
        return sum(
            o.result.records_dropped
            for o in self.outcomes
            if o.result is not None and not o.quarantined
        )

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined_indices) or self.records_dropped > 0


def validate_shard_result(
    result: Any, plan: ShardPlan, shard_index: int
) -> List[str]:
    """Integrity problems of one shard partial (empty list = sound).

    Catches the ``corrupt_partial`` fault class and any real torn or
    garbled partial (a damaged stored payload, a worker that died
    mid-serialization): shape or dtype drift, negative cells, byte
    accounting outside ``0 <= classified <= total``.
    """
    problems: List[str] = []
    if not isinstance(result, ShardResult):
        return [f"not a ShardResult: {type(result).__name__}"]
    if result.shard_index != shard_index:
        problems.append(
            f"shard_index {result.shard_index} != expected {shard_index}"
        )
    n_communes = plan.country.n_communes
    n_head = len(plan.catalog.head_services)
    expected_shape = (n_communes, n_head, plan.axis.n_bins)
    for name, tensor, shape in (
        ("dl", result.dl, expected_shape),
        ("ul", result.ul, expected_shape),
        ("national_dl", result.national_dl, (len(plan.catalog),)),
        ("national_ul", result.national_ul, (len(plan.catalog),)),
    ):
        if tuple(tensor.shape) != shape:
            problems.append(
                f"{name} shape {tuple(tensor.shape)} != expected {shape}"
            )
            continue
        if tensor.dtype != np.int64:
            problems.append(f"{name} dtype {tensor.dtype} is not int64")
        elif tensor.min(initial=0) < 0:
            problems.append(f"{name} contains negative volumes")
    report = result.report
    if not 0 <= report.bytes_classified <= report.bytes_total:
        problems.append(
            f"report bytes classified {report.bytes_classified} "
            f"outside [0, total {report.bytes_total}]"
        )
    if result.records_ingested < 0:
        problems.append(f"negative records_ingested {result.records_ingested}")
    if len(result.users_seen) != n_communes:
        problems.append(
            f"users_seen covers {len(result.users_seen)} communes, "
            f"expected {n_communes}"
        )
    return problems


def _charge(
    outcome: ShardOutcome, attempt: int, kind: str, message: str
) -> ShardFailure:
    failure = ShardFailure(
        shard_index=outcome.shard_index,
        attempt=attempt,
        kind=kind,
        message=message,
    )
    outcome.failures.append(failure)
    return failure


def _retire(
    outcome: ShardOutcome,
    report: ExecutionReport,
    store: SpillStore,
) -> None:
    """Settle a stored partial's residency under the budget.

    Every stored partial is charged against the resident budget; once
    the budget would be exceeded only a compact handle on the file
    already written stays (``budget_bytes=0`` keeps none loaded).  The
    file round-trips bit-identically, so residency is purely a memory
    decision — it can never change the merged dataset.
    """
    nbytes = partial_nbytes(outcome.result)
    if report.resident_partial_bytes + nbytes > store.budget_bytes:
        outcome.result = store.handle(outcome.result)
        report.spills += 1
    else:
        report.resident_partial_bytes += nbytes


def _accept(
    outcome: ShardOutcome,
    result: ShardResult,
    attempt: int,
    plan: ShardPlan,
    report: ExecutionReport,
    attempts_left: bool,
    store: Optional[SpillStore],
) -> bool:
    """Validate one attempt's result; True when the shard is settled.

    A corrupt partial is always a failure.  Dropped records are retried
    while attempts remain; on the last attempt the result is kept and
    the loss accounted (degradation is the caller's policy decision).
    A settled partial is written to the store before the next shard
    settles, so a build that dies later can resume from it.
    """
    problems = validate_shard_result(result, plan, outcome.shard_index)
    if problems:
        _charge(
            outcome, attempt, "corrupt",
            "corrupt shard partial: " + "; ".join(problems),
        )
        return False
    if result.records_dropped > 0 and attempts_left:
        _charge(
            outcome, attempt, "dropped_records",
            f"shard reported {result.records_dropped} dropped records",
        )
        return False
    outcome.result = result
    if store is not None:
        store.write(result)
        report.partials_written += 1
        _retire(outcome, report, store)
    return True


def _resume_from_store(
    outcomes: List[ShardOutcome],
    plan: ShardPlan,
    store: SpillStore,
    report: ExecutionReport,
) -> None:
    """Load the valid partials already in the store; none is rewritten."""
    for outcome in outcomes:
        loaded = store.load(outcome.shard_index)
        if loaded is None:
            # A file that exists but would not load is damaged, foreign
            # or of another schema: discarded, not merely absent.
            if store.path_for(outcome.shard_index).exists():
                report.partials_discarded += 1
            continue
        if validate_shard_result(loaded, plan, outcome.shard_index):
            report.partials_discarded += 1
            continue
        outcome.result = loaded
        outcome.resumed = True
        _retire(outcome, report, store)


class _SupervisedPool:
    """A rebuildable fork pool bound to one worker context.

    Workers are initialized with the shard context via the pool
    initializer — the parent's module state is never touched — and a
    rebuild after a crash or hang re-forks workers from the identical
    context, so recovery cannot perturb determinism.
    """

    def __init__(self, mp_context, processes: int, context: WorkerContext):
        self._mp_context = mp_context
        self._processes = processes
        self._context = context
        self._pool = None

    def pool(self):
        if self._pool is None:
            self._pool = self._mp_context.Pool(
                processes=self._processes,
                initializer=_init_worker,
                initargs=(self._context,),
            )
        return self._pool

    def dead_workers(self) -> List[int]:
        """Exit codes of workers that died abnormally (best effort)."""
        if self._pool is None:
            return []
        codes = []
        for process in list(getattr(self._pool, "_pool", [])):
            code = process.exitcode
            if code is not None and code != 0:
                codes.append(code)
        return codes

    def rebuild(self) -> None:
        self.terminate()

    def terminate(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def _collect_pooled(
    supervised: _SupervisedPool,
    waiting: Dict[int, Any],
    attempts: Dict[int, int],
    outcomes: Dict[int, ShardOutcome],
    policy: RetryPolicy,
) -> Tuple[Dict[int, ShardResult], bool]:
    """Gather one round of async results, timing out hung workers.

    Returns ``(results_by_shard, pool_broken)``.  The watchdog budget
    runs from the moment this round starts waiting on a shard — a
    deliberate over-approximation (queue time counts) that can only
    delay a timeout verdict, never corrupt data.
    """
    gathered: Dict[int, ShardResult] = {}
    broken = False
    for shard_index in sorted(waiting):
        handle = waiting[shard_index]
        attempt = attempts[shard_index]
        deadline = (
            None
            if policy.timeout_s is None
            else clock.now_s() + policy.timeout_s
        )
        while True:
            try:
                gathered[shard_index] = handle.get(POLL_S)
                break
            except multiprocessing.TimeoutError:
                dead = supervised.dead_workers()
                if dead:
                    _charge(
                        outcomes[shard_index], attempt, "crash",
                        f"worker process died (exit codes {dead}) before "
                        "returning this shard",
                    )
                    broken = True
                    break
                if deadline is not None and clock.now_s() >= deadline:
                    _charge(
                        outcomes[shard_index], attempt, "timeout",
                        f"shard attempt exceeded the {policy.timeout_s}s "
                        "watchdog",
                    )
                    broken = True
                    break
            except InjectedHangError as exc:
                _charge(outcomes[shard_index], attempt, "timeout", str(exc))
                break
            except Exception as exc:  # worker raised: typed, not fatal
                _charge(
                    outcomes[shard_index], attempt, "exception",
                    f"{type(exc).__name__}: {exc}",
                )
                break
    return gathered, broken


def execute_shards_supervised(
    plan: ShardPlan,
    n_workers: int,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    resume: bool = True,
    store: Optional[SpillStore] = None,
) -> ExecutionReport:
    """Run every shard under supervision; see the module docstring.

    ``seed`` keys the deterministic backoff schedule only — shard
    content comes from the plan's keyed draws, so it never depends on
    retries or on ``n_workers``.  With ``store`` set, every accepted
    partial is written to it once; partials beyond the store's resident
    budget are then held as compact handles (see
    :meth:`ExecutionReport.iter_results`).  With ``resume=True`` the
    valid files already in the store settle their shards without a
    run; with ``resume=False`` they are overwritten, never read.
    """
    if policy is None:
        policy = RetryPolicy()
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    n_shards = plan.n_shards
    outcomes = [ShardOutcome(shard_index=i) for i in range(n_shards)]
    report = ExecutionReport(
        n_shards=n_shards, policy=policy, outcomes=outcomes
    )
    if resume and store is not None:
        _resume_from_store(outcomes, plan, store, report)
    pending = [o.shard_index for o in outcomes if o.result is None]

    context = WorkerContext(plan, fault_plan=fault_plan)
    if pending:
        mp_context = None
        if n_workers > 1 and len(pending) > 1:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:
                mp_context = None
        if mp_context is None:
            _run_in_process(
                context, pending, outcomes, plan, policy, report, seed, store,
            )
        else:
            _run_pooled(
                context, mp_context, min(n_workers, len(pending)), pending,
                outcomes, plan, policy, report, seed, store,
            )
    assert _parent_context_clean(), (
        "worker context leaked into the parent process"
    )

    _settle_exhausted(outcomes, policy)
    if fault_plan is not None:
        report.faults_injected = sum(
            len(fault_plan.faults_for(o.shard_index, a))
            for o in outcomes
            for a in range(o.attempts_executed)
        )
    _emit_observability(report)
    return report


def _parent_context_clean() -> bool:
    from repro.dataset import parallel

    return parallel._WORKER_CONTEXT is None


def _run_in_process(
    context: WorkerContext,
    pending: List[int],
    outcomes: List[ShardOutcome],
    plan: ShardPlan,
    policy: RetryPolicy,
    report: ExecutionReport,
    seed: int,
    store: Optional[SpillStore],
) -> None:
    """Serial supervision: the fallback and the ``n_workers=1`` path.

    A shard cannot be preempted in-process, so the watchdog cannot fire
    mid-attempt; injected hangs surface synchronously as
    :class:`InjectedHangError` and are charged as the same ``timeout``
    failure kind the pooled watchdog uses.
    """
    for shard_index in pending:
        outcome = outcomes[shard_index]
        for attempt in range(policy.max_attempts):
            _sleep_backoff(policy, seed, shard_index, attempt)
            outcome.attempts_executed += 1
            attempts_left = attempt + 1 < policy.max_attempts
            try:
                result = run_shard_attempt(
                    context, shard_index, attempt, in_worker=False
                )
            except InjectedHangError as exc:
                _charge(outcome, attempt, "timeout", str(exc))
                continue
            except Exception as exc:
                _charge(
                    outcome, attempt, "exception",
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            if _accept(
                outcome, result, attempt, plan, report, attempts_left, store,
            ):
                break


def _run_pooled(
    context: WorkerContext,
    mp_context,
    processes: int,
    pending: List[int],
    outcomes: List[ShardOutcome],
    plan: ShardPlan,
    policy: RetryPolicy,
    report: ExecutionReport,
    seed: int,
    store: Optional[SpillStore],
) -> None:
    """Round-based pooled supervision with watchdog and pool rebuild."""
    supervised = _SupervisedPool(mp_context, processes, context)
    attempts = {i: 0 for i in pending}
    outcome_map = {o.shard_index: o for o in outcomes}
    try:
        while pending:
            _sleep_backoff(
                policy, seed, pending[0], attempts[pending[0]]
            )
            pool = supervised.pool()
            waiting = {
                i: pool.apply_async(_worker_run_shard, ((i, attempts[i]),))
                for i in pending
            }
            for i in pending:
                outcome_map[i].attempts_executed += 1
            gathered, broken = _collect_pooled(
                supervised, waiting, attempts, outcome_map, policy
            )
            if broken:
                supervised.rebuild()
            next_pending = []
            for shard_index in pending:
                outcome = outcome_map[shard_index]
                attempt = attempts[shard_index]
                attempts_left = attempt + 1 < policy.max_attempts
                settled = shard_index in gathered and _accept(
                    outcome, gathered[shard_index], attempt, plan,
                    report, attempts_left, store,
                )
                if not settled and attempts_left:
                    attempts[shard_index] = attempt + 1
                    next_pending.append(shard_index)
            pending = next_pending
    finally:
        supervised.terminate()


def _sleep_backoff(
    policy: RetryPolicy, seed: int, shard_index: int, attempt: int
) -> None:
    pause = policy.backoff_s(seed, shard_index, attempt)
    if pause > 0.0:
        time.sleep(pause)


def _settle_exhausted(
    outcomes: List[ShardOutcome], policy: RetryPolicy
) -> None:
    """Apply the degradation policy to shards that never settled."""
    exhausted = [
        o for o in outcomes if o.result is None and o.failures
    ]
    # A shard whose final attempt only *dropped records* kept its last
    # result in _accept (attempts_left was False), so it is not here —
    # its loss is accounted through ExecutionReport.records_dropped.
    if not exhausted:
        return
    if policy.on_exhausted == "fail":
        raise ShardExecutionError(
            [f for o in exhausted for f in o.failures]
        )
    for outcome in exhausted:
        outcome.quarantined = True


def _emit_observability(report: ExecutionReport) -> None:
    """Counters + structured events, in deterministic shard order.

    Called once on the parent after execution settles, so the emitted
    stream is a pure function of the supervision history — identical
    for any worker count and any completion interleaving.
    """
    obs.add("resilience.attempts", report.attempts_executed)
    if report.retries:
        obs.add("resilience.retries", report.retries)
    if report.failures:
        obs.add("resilience.failures", len(report.failures))
    if report.quarantined_indices:
        obs.add(
            "resilience.quarantined_shards", len(report.quarantined_indices)
        )
    if report.partials_resumed:
        obs.add("resilience.partials_resumed", report.partials_resumed)
    if report.partials_written:
        obs.add("resilience.partials_written", report.partials_written)
    if report.partials_discarded:
        obs.add("resilience.partials_discarded", report.partials_discarded)
    if report.faults_injected:
        obs.add("resilience.faults_injected", report.faults_injected)
    if report.records_dropped:
        obs.add("resilience.records_dropped", report.records_dropped)
    if report.spills:
        obs.add("stream.spills", report.spills)
    for outcome in report.outcomes:
        for failure in outcome.failures:
            obs.log_event(
                "retry",
                f"shard[{failure.shard_index}]",
                {"attempt": failure.attempt, "kind": failure.kind},
            )
        if outcome.quarantined:
            obs.log_event(
                "quarantine",
                f"shard[{outcome.shard_index}]",
                {"attempts": outcome.attempts_executed},
            )
        if outcome.resumed:
            obs.log_event("resume", f"shard[{outcome.shard_index}]", None)


__all__ = [
    "FAILURE_KINDS",
    "POLL_S",
    "ExecutionReport",
    "ShardExecutionError",
    "ShardFailure",
    "ShardOutcome",
    "execute_shards_supervised",
    "validate_shard_result",
]
