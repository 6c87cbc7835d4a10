"""Resilient sharded execution: faults, retries, resume, coverage.

The layer that turns the bare shard executor into a production-grade
one.  Three cooperating pieces:

- :mod:`repro.resilience.faults` — deterministic fault injection
  (:class:`FaultPlan`), addressed by ``(stage, shard_index, attempt)``;
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` with a
  wall-clock-free decision path and a ``(seed, shard_index, attempt)``
  deterministic backoff schedule;
- :mod:`repro.resilience.supervisor` — the supervised executor
  (:func:`execute_shards_supervised`) with typed failures, a watchdog,
  worker-crash recovery, resume from the partial store
  (:class:`repro.dataset.merge.SpillStore`), and graceful degradation
  accounted through :mod:`repro.resilience.coverage`.

See ``docs/robustness.md`` for the failure model and the determinism
argument.

``supervisor`` imports :mod:`repro.dataset.parallel`, which itself
imports :mod:`repro.resilience.faults` — so the supervisor (and the
names re-exported from it) load lazily here, the same cycle-breaking
pattern :mod:`repro.dataset` uses.
"""

from __future__ import annotations

from repro.resilience.coverage import CoverageReport, coverage_block_from_meta
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_STAGES,
    FaultPlan,
    FaultSpec,
    InjectedHangError,
    InjectedWorkerError,
)
from repro.resilience.retry import ON_EXHAUSTED, RetryPolicy

_LAZY = {
    "ExecutionReport": "repro.resilience.supervisor",
    "FAILURE_KINDS": "repro.resilience.supervisor",
    "ShardExecutionError": "repro.resilience.supervisor",
    "ShardFailure": "repro.resilience.supervisor",
    "ShardOutcome": "repro.resilience.supervisor",
    "execute_shards_supervised": "repro.resilience.supervisor",
    "validate_shard_result": "repro.resilience.supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "CoverageReport",
    "coverage_block_from_meta",
    "FAULT_KINDS",
    "FAULT_STAGES",
    "FaultPlan",
    "FaultSpec",
    "InjectedHangError",
    "InjectedWorkerError",
    "ON_EXHAUSTED",
    "RetryPolicy",
    "ExecutionReport",
    "FAILURE_KINDS",
    "ShardExecutionError",
    "ShardFailure",
    "ShardOutcome",
    "execute_shards_supervised",
    "validate_shard_result",
]
