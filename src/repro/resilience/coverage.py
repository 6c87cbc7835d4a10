"""Coverage accounting for degraded builds.

When the supervisor exhausts retries under the ``quarantine`` policy,
the build completes without the failed shards — exactly how the paper's
own week treats its excluded maintenance window (§2): the dataset is
still usable, but its coverage is no longer the full panel.  This
module makes that degradation *visible and quantified* instead of
silent: a :class:`CoverageReport` records what was lost, stamps the
dataset's ``meta`` with ``coverage.*`` keys, and produces the
``coverage`` block the fidelity scorecard carries.

Per-subscriber denominators need no correction: the aggregator counts
distinct subscribers per commune from surviving shards only, so
``per_subscriber_volumes`` and friends are already normalized to the
*surviving* coverage.  National absolute totals, by contrast, scale
with coverage — consumers comparing them against full-panel targets
must rescale by ``1 / fraction`` (exposed as :attr:`CoverageReport.
scale`) or, better, treat a degraded run as degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class CoverageReport:
    """What one build covered, and what it lost."""

    #: Shards the plan contained.
    n_shards: int
    #: Shard indices quarantined after retry exhaustion, sorted.
    quarantined: List[int] = field(default_factory=list)
    #: Subscribers in the full panel.
    subscribers_total: int = 0
    #: Subscribers on quarantined shards (lost from the dataset).
    subscribers_lost: int = 0
    #: Probe records dropped inside accepted shards (outage windows).
    records_dropped: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.subscribers_lost > self.subscribers_total:
            raise ValueError(
                f"subscribers_lost {self.subscribers_lost} exceeds "
                f"subscribers_total {self.subscribers_total}"
            )

    @property
    def fraction(self) -> float:
        """Surviving fraction of the subscriber panel (1.0 = full)."""
        if self.subscribers_total == 0:
            return 1.0
        return 1.0 - self.subscribers_lost / self.subscribers_total

    @property
    def scale(self) -> float:
        """Factor rescaling surviving totals to full-panel estimates."""
        fraction = self.fraction
        if fraction <= 0.0:
            raise ValueError(
                "coverage fraction is 0 — nothing survived to rescale"
            )
        return 1.0 / fraction

    @property
    def degraded(self) -> bool:
        """Whether anything at all was lost."""
        return bool(self.quarantined) or self.records_dropped > 0

    def meta(self) -> Dict[str, float]:
        """The ``coverage.*`` keys stamped into ``dataset.meta``.

        All-float so they survive the dataset's npz round trip; stamped
        on every supervised build (full-coverage runs carry
        ``fraction == 1.0``) so a clean run and a recovered run remain
        byte-identical.  The shard count is stamped only when shards
        were quarantined: a clean build's content does not depend on it.
        """
        meta = {
            "coverage.fraction": float(self.fraction),
            "coverage.quarantined_shards": float(len(self.quarantined)),
            "coverage.subscribers_total": float(self.subscribers_total),
            "coverage.subscribers_lost": float(self.subscribers_lost),
            "coverage.records_dropped": float(self.records_dropped),
        }
        if self.quarantined:
            meta["coverage.n_shards"] = float(self.n_shards)
        return meta

    def block(self) -> Dict[str, Any]:
        """The JSON ``coverage`` block of a fidelity scorecard."""
        return {
            "fraction": float(self.fraction),
            "n_shards": int(self.n_shards),
            "quarantined_shards": sorted(int(i) for i in self.quarantined),
            "subscribers_total": int(self.subscribers_total),
            "subscribers_lost": int(self.subscribers_lost),
            "records_dropped": int(self.records_dropped),
            "degraded": self.degraded,
        }


def coverage_block_from_meta(meta: Dict[str, float]) -> Dict[str, Any]:
    """Rebuild a scorecard ``coverage`` block from ``dataset.meta``.

    The inverse of :meth:`CoverageReport.meta` as far as the flattened
    keys allow (individual quarantined indices are not stored in meta,
    only their count).  Datasets from before the resilience layer carry
    no ``coverage.*`` keys; they read back as full coverage.
    """
    n_shards = int(meta.get("coverage.n_shards", 1.0))
    quarantined_count = int(meta.get("coverage.quarantined_shards", 0.0))
    return {
        "fraction": float(meta.get("coverage.fraction", 1.0)),
        "n_shards": max(n_shards, 1),
        "quarantined_shards": quarantined_count,
        "subscribers_total": int(meta.get("coverage.subscribers_total", 0.0)),
        "subscribers_lost": int(meta.get("coverage.subscribers_lost", 0.0)),
        "records_dropped": int(meta.get("coverage.records_dropped", 0.0)),
        "degraded": quarantined_count > 0
        or int(meta.get("coverage.records_dropped", 0.0)) > 0,
    }


__all__ = ["CoverageReport", "coverage_block_from_meta"]
