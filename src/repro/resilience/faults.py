"""Deterministic fault injection for the sharded measurement chain.

Nationwide capture pipelines treat partial failure as a normal
operating condition: the paper excludes a maintenance window from its
week (§2), and probe outages, crashed collectors, and dropped GTP/DPI
records are everyday events at an operator.  This module makes every
such failure a *reproducible test fixture*: a :class:`FaultPlan` maps
``(shard_index, attempt)`` to the faults that fire there, so a failure
scenario is replayed bit-identically on every run.

Fault classes (:data:`FAULT_KINDS`):

``worker_exception``
    The shard worker raises :class:`InjectedWorkerError` at the
    addressed stage — the "collector process crashed with a traceback"
    case.
``worker_hang``
    In a worker process the shard blocks forever (a stuck capture); the
    supervisor's watchdog must time it out and reclaim the worker.  In
    in-process execution a hang cannot be preempted, so the injector
    raises :class:`InjectedHangError`, which the supervisor accounts as
    the same timeout-class failure.
``corrupt_partial``
    The shard's :class:`~repro.dataset.parallel.ShardResult` comes back
    damaged (a negative cell, a negative report byte total) — the
    "truncated/garbled capture file" case.  Parent-side validation must
    catch it.
``drop_records``
    A deterministic fraction of the shard's probe records never reaches
    aggregation — the "probe outage window" case.  The shard stays
    usable but under-covered, and reports the loss.

Plans are either written explicitly (a list of :class:`FaultSpec`) or
sampled from a seed with :meth:`FaultPlan.sample`, which draws one
spawned RNG stream per fault kind so scenarios are decorrelated and
stable under changes to the other kinds' rates.

Serve-path faults
-----------------

The serving layer (``docs/robustness.md``, "Serving under overload")
has its own fault vocabulary (:data:`SERVE_FAULT_KINDS`), addressed by
``stage × request_id`` instead of ``(shard_index, attempt)`` — a query
path has no shards, but every request carries a stable id:

``index_unavailable``
    The similarity/aggregation indexes are unreachable for this
    request — the engine must degrade (answer stale from cache where
    the family allows it) instead of crashing.
``slow_phase``
    The addressed phase takes ``delay_ms`` longer — the deadline-budget
    and saturation machinery must absorb it.
``corrupt_cache_entry``
    The cached bytes for this request's key are damaged in place.  The
    engine must *detect* the damage via the stored canonical-JSON
    digest, count it, evict, and recompute — a corrupt entry is never
    served.

Serve faults are sampled with :meth:`FaultPlan.sample_serve` and looked
up with :meth:`FaultPlan.serve_faults_for`; the two address spaces
coexist in one plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro._rng import SeedLike, as_generator, spawn

#: The closed set of injectable build-path fault kinds.
FAULT_KINDS = (
    "worker_exception",
    "worker_hang",
    "corrupt_partial",
    "drop_records",
)

#: Pipeline stages a fault can address inside one shard run.
FAULT_STAGES = ("generate", "aggregate", "result")

#: The closed set of injectable serve-path fault kinds.
SERVE_FAULT_KINDS = (
    "index_unavailable",
    "slow_phase",
    "corrupt_cache_entry",
)

#: Request phases a serve fault can address (the engine's trace phases).
SERVE_FAULT_STAGES = ("parse", "cache_lookup", "index_scan", "encode")

#: Default phase each serve fault kind fires in when unaddressed.
_SERVE_DEFAULT_STAGE = {
    "index_unavailable": "index_scan",
    "slow_phase": "index_scan",
    "corrupt_cache_entry": "cache_lookup",
}

#: Default injected delay for ``slow_phase`` faults, milliseconds.
DEFAULT_SLOW_PHASE_DELAY_MS = 50.0


class InjectedWorkerError(RuntimeError):
    """Raised inside a shard worker by a ``worker_exception`` fault."""


class InjectedHangError(RuntimeError):
    """In-process stand-in for a ``worker_hang`` fault.

    A real hang only exists in a worker process (the supervisor's
    watchdog kills it); in-process execution surfaces the same scenario
    synchronously so both paths exercise the identical recovery logic.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    Build-path kinds (:data:`FAULT_KINDS`) are addressed by
    ``(shard_index, attempt)``; serve-path kinds
    (:data:`SERVE_FAULT_KINDS`) by ``(request_id, attempt)`` with the
    stage drawn from :data:`SERVE_FAULT_STAGES`.
    """

    kind: str
    shard_index: int = 0
    attempt: int = 0
    stage: str = "generate"
    #: Fraction of probe records dropped (``drop_records`` only).
    drop_fraction: float = 0.25
    #: Serve-path address: the request this fault fires on.
    request_id: Optional[str] = None
    #: Injected extra latency (``slow_phase`` only), milliseconds.
    delay_ms: float = DEFAULT_SLOW_PHASE_DELAY_MS

    def __post_init__(self) -> None:
        if self.kind in SERVE_FAULT_KINDS:
            if self.request_id is None:
                raise ValueError(
                    f"serve fault {self.kind!r} must address a request_id"
                )
            if self.stage not in SERVE_FAULT_STAGES:
                raise ValueError(
                    f"serve fault stage {self.stage!r} must be one of "
                    f"{SERVE_FAULT_STAGES}"
                )
            if self.delay_ms < 0:
                raise ValueError(
                    f"delay_ms must be >= 0, got {self.delay_ms}"
                )
        else:
            if self.kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {self.kind!r}; expected one of "
                    f"{FAULT_KINDS} or {SERVE_FAULT_KINDS}"
                )
            if self.request_id is not None:
                raise ValueError(
                    f"build fault {self.kind!r} cannot address a request_id"
                )
            if self.stage not in FAULT_STAGES:
                raise ValueError(
                    f"unknown fault stage {self.stage!r}; expected one of "
                    f"{FAULT_STAGES}"
                )
        if self.shard_index < 0:
            raise ValueError(
                f"shard_index must be >= 0, got {self.shard_index}"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if not 0.0 < self.drop_fraction <= 1.0:
            raise ValueError(
                f"drop_fraction must be in (0, 1], got {self.drop_fraction}"
            )


class FaultPlan:
    """A reproducible failure scenario for one sharded build.

    Immutable after construction; lookup is by ``(shard_index,
    attempt)`` so a fault injected at attempt 0 does not re-fire on the
    retry — the canonical retry-success fixture.
    """

    def __init__(self, faults: Sequence[FaultSpec] = ()):
        self._faults: Tuple[FaultSpec, ...] = tuple(faults)
        self._by_address: Dict[Tuple[int, int], List[FaultSpec]] = {}
        self._by_request: Dict[Tuple[str, int], List[FaultSpec]] = {}
        for fault in self._faults:
            if fault.request_id is not None:
                request_key = (fault.request_id, fault.attempt)
                self._by_request.setdefault(request_key, []).append(fault)
            else:
                key = (fault.shard_index, fault.attempt)
                self._by_address.setdefault(key, []).append(fault)

    @property
    def faults(self) -> Tuple[FaultSpec, ...]:
        return self._faults

    def __len__(self) -> int:
        return len(self._faults)

    def faults_for(
        self, shard_index: int, attempt: int
    ) -> Tuple[FaultSpec, ...]:
        """Every build fault addressed to one ``(shard_index, attempt)``."""
        return tuple(self._by_address.get((shard_index, attempt), ()))

    def serve_faults_for(
        self,
        request_id: str,
        attempt: int = 0,
        stage: Optional[str] = None,
    ) -> Tuple[FaultSpec, ...]:
        """Every serve fault addressed to ``(request_id, attempt)``.

        ``stage`` narrows to faults firing in one request phase.  Like
        the build-path lookup, a fault injected at attempt 0 does not
        re-fire on the retry — the retrying client's success fixture.
        """
        faults = self._by_request.get((request_id, attempt), ())
        if stage is not None:
            faults = [f for f in faults if f.stage == stage]
        return tuple(faults)

    def describe(self) -> List[str]:
        """One human-readable line per fault, in declaration order."""
        lines = []
        for f in self._faults:
            if f.request_id is not None:
                lines.append(
                    f"{f.kind} @ request {f.request_id} attempt "
                    f"{f.attempt} stage {f.stage}"
                )
            else:
                lines.append(
                    f"{f.kind} @ shard {f.shard_index} attempt {f.attempt} "
                    f"stage {f.stage}"
                )
        return lines

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from ``kind:address[:attempt[:stage]]`` strings.

        The CLI's ``--fault`` flag format.  For build kinds the address
        is a shard index (``worker_exception:2``,
        ``drop_records:0:1:aggregate``); for serve kinds it is a request
        id (``index_unavailable:req-000005``,
        ``slow_phase:req-000012:0:encode``).
        """
        faults = []
        for text in specs:
            parts = text.split(":")
            if not 2 <= len(parts) <= 4:
                raise ValueError(
                    f"fault spec {text!r} is not "
                    f"kind:address[:attempt[:stage]]"
                )
            kind = parts[0]
            attempt = int(parts[2]) if len(parts) > 2 else 0
            if kind in SERVE_FAULT_KINDS:
                stage = (
                    parts[3]
                    if len(parts) > 3
                    else _SERVE_DEFAULT_STAGE[kind]
                )
                faults.append(
                    FaultSpec(
                        kind=kind,
                        request_id=parts[1],
                        attempt=attempt,
                        stage=stage,
                    )
                )
                continue
            shard_index = int(parts[1])
            if len(parts) > 3:
                stage = parts[3]
            else:
                stage = "aggregate" if kind == "drop_records" else "generate"
            faults.append(
                FaultSpec(
                    kind=kind,
                    shard_index=shard_index,
                    attempt=attempt,
                    stage=stage,
                )
            )
        return cls(faults)

    @classmethod
    def sample_serve(
        cls,
        seed: SeedLike,
        request_ids: Sequence[str],
        rates: Optional[Dict[str, float]] = None,
        delay_ms: float = DEFAULT_SLOW_PHASE_DELAY_MS,
    ) -> "FaultPlan":
        """Sample a reproducible serve-path scenario over a schedule.

        ``rates`` maps serve fault kind to the per-request injection
        probability.  Mirrors :meth:`sample`: one spawned stream per
        kind in the fixed :data:`SERVE_FAULT_KINDS` order, so re-rating
        one kind never perturbs the others' scenarios.
        """
        rates = dict(rates or {})
        for kind in sorted(rates):
            if kind not in SERVE_FAULT_KINDS:
                raise ValueError(
                    f"unknown serve fault kind {kind!r} in rates"
                )
            if not 0.0 <= rates[kind] <= 1.0:
                raise ValueError(
                    f"rate for {kind!r} must be in [0, 1], got {rates[kind]}"
                )
        parent = as_generator(seed)
        streams = {
            kind: spawn(parent, f"faults.serve.{kind}")
            for kind in SERVE_FAULT_KINDS
        }
        faults = []
        for kind in SERVE_FAULT_KINDS:
            rate = rates.get(kind, 0.0)
            stream = streams[kind]
            for request_id in request_ids:
                if stream.random() < rate:
                    faults.append(
                        FaultSpec(
                            kind=kind,
                            request_id=request_id,
                            stage=_SERVE_DEFAULT_STAGE[kind],
                            delay_ms=delay_ms,
                        )
                    )
        return cls(faults)

    @classmethod
    def sample(
        cls,
        seed: SeedLike,
        n_shards: int,
        rates: Optional[Dict[str, float]] = None,
        max_attempts: int = 1,
        drop_fraction: float = 0.25,
    ) -> "FaultPlan":
        """Sample a random-but-reproducible scenario from ``seed``.

        ``rates`` maps fault kind to the per-``(shard, attempt)``
        injection probability; kinds not listed are never injected.
        Each kind draws from its own spawned stream, so adding or
        re-rating one kind never perturbs the scenarios of the others.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        rates = dict(rates or {})
        for kind in sorted(rates):
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in rates")
            if not 0.0 <= rates[kind] <= 1.0:
                raise ValueError(
                    f"rate for {kind!r} must be in [0, 1], got {rates[kind]}"
                )
        parent = as_generator(seed)
        faults = []
        # Spawn in the fixed FAULT_KINDS order so each kind's stream is
        # stable regardless of which kinds carry a nonzero rate.
        streams = {
            kind: spawn(parent, f"faults.{kind}") for kind in FAULT_KINDS
        }
        for kind in FAULT_KINDS:
            rate = rates.get(kind, 0.0)
            stream = streams[kind]
            for shard_index in range(n_shards):
                for attempt in range(max_attempts):
                    if stream.random() < rate:
                        faults.append(
                            FaultSpec(
                                kind=kind,
                                shard_index=shard_index,
                                attempt=attempt,
                                stage=(
                                    "aggregate"
                                    if kind == "drop_records"
                                    else "generate"
                                ),
                                drop_fraction=drop_fraction,
                            )
                        )
        return cls(faults)


def fire_stage_faults(
    faults: Sequence[FaultSpec], stage: str, in_worker_process: bool
) -> None:
    """Raise/hang for exception- and hang-class faults at ``stage``.

    Called by the shard runner at each injection point.  A hang only
    really blocks inside a worker process (where the supervisor's
    watchdog and pool teardown can reclaim it); in-process it raises
    :class:`InjectedHangError` instead, which the supervisor maps to the
    same timeout failure kind.
    """
    for fault in faults:
        if fault.stage != stage:
            continue
        if fault.kind == "worker_exception":
            raise InjectedWorkerError(
                f"injected worker exception at stage {stage!r} "
                f"(shard {fault.shard_index}, attempt {fault.attempt})"
            )
        if fault.kind == "worker_hang":
            if in_worker_process:
                while True:  # reclaimed by the supervisor's pool teardown
                    time.sleep(0.25)
            raise InjectedHangError(
                f"injected hang at stage {stage!r} "
                f"(shard {fault.shard_index}, attempt {fault.attempt})"
            )


def drop_fraction_for(faults: Sequence[FaultSpec]) -> float:
    """The record-drop fraction addressed to this run (0.0 when none)."""
    for fault in faults:
        if fault.kind == "drop_records":
            return fault.drop_fraction
    return 0.0


def wants_corrupt_result(faults: Sequence[FaultSpec]) -> bool:
    """Whether a ``corrupt_partial`` fault addresses this run."""
    return any(fault.kind == "corrupt_partial" for fault in faults)


__all__ = [
    "DEFAULT_SLOW_PHASE_DELAY_MS",
    "FAULT_KINDS",
    "FAULT_STAGES",
    "FaultPlan",
    "FaultSpec",
    "InjectedHangError",
    "InjectedWorkerError",
    "SERVE_FAULT_KINDS",
    "SERVE_FAULT_STAGES",
    "drop_fraction_for",
    "fire_stage_faults",
    "wants_corrupt_result",
]
