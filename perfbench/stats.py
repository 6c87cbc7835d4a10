"""Order statistics the benchmark reports.

Stdlib only, so the orchestrating process never imports numpy:

- :func:`median` — the middle value (mean of the middle pair);
- :func:`quartiles` — ``statistics.quantiles(values, n=4)``, the
  "exclusive" method, which is also how the run-to-run spread of a
  metric is judged.  From three samples on it equals numpy's
  ``method="weibull"``; with two it extrapolates past the data;
- :func:`percentile` — nearest rank (numpy's ``method="inverted_cdf"``):
  always an observed sample, never an interpolation between two.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, ``0 < p <= 100``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    # The epsilon keeps e.g. 0.99 * 100 = 99.00000000000001 at rank 99.
    rank = math.ceil(p * len(ordered) / 100.0 - 1e-9)
    return float(ordered[max(rank, 1) - 1])


__all__ = ["median", "percentile", "quartiles", "spread"]
