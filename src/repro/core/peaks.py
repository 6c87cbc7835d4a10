"""Smoothed z-score peak detection.

The paper detects activity peaks with "the smoothed z-score algorithm"
(§4, pointing at the well-known thresholding gist): the signal is
compared against the mean and standard deviation of a *filtered* trailing
window; samples deviating by more than ``threshold`` standard deviations
are flagged, and flagged samples enter the filtered history only with
weight ``influence`` so a peak does not inflate its own baseline.
:func:`smoothed_zscore_rows` runs the recurrence once over time for a
whole ``(S, n)`` stack of services; :func:`smoothed_zscore` is its
one-row case.

The paper's parameters — threshold 3 z-scores, lag 2 hours, influence
0.4 — are the defaults (the lag is converted to samples through the time
axis resolution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro._time import TimeAxis


@dataclass
class PeakDetection:
    """Full output of the detector, enough to redraw the paper's Fig. 4."""

    signals: np.ndarray  # (n,) in {-1, 0, +1}
    filtered: np.ndarray  # (n,) the influence-weighted history
    moving_mean: np.ndarray  # (n,) trailing mean of the filtered signal
    moving_std: np.ndarray  # (n,) trailing std of the filtered signal
    threshold: float
    lag: int
    influence: float

    @property
    def upper_band(self) -> np.ndarray:
        """The detection boundary above the smoothed signal."""
        return self.moving_mean + self.threshold * self.moving_std

    @property
    def lower_band(self) -> np.ndarray:
        """The detection boundary below the smoothed signal."""
        return self.moving_mean - self.threshold * self.moving_std

    def rising_fronts(self) -> np.ndarray:
        """Indices where a positive peak starts (the paper's red lines)."""
        positive = self.signals == 1
        starts = positive & ~np.concatenate(([False], positive[:-1]))
        return np.nonzero(starts)[0]

    def peak_intervals(self) -> List[Tuple[int, int]]:
        """(start, end) index pairs of contiguous positive-peak runs
        (``end`` exclusive)."""
        positive = np.concatenate(([0], (self.signals == 1).astype(int), [0]))
        edges = np.diff(positive)
        starts = np.nonzero(edges == 1)[0]
        ends = np.nonzero(edges == -1)[0]
        return list(zip(starts.tolist(), ends.tolist()))


def smoothed_zscore_rows(
    stack: np.ndarray,
    lag: int,
    threshold: float = 3.0,
    influence: float = 0.4,
) -> List[PeakDetection]:
    """Run the smoothed z-score detector over each row of an ``(S, n)`` stack.

    Parameters follow the reference implementation: ``lag`` is the
    trailing-window length in samples, ``threshold`` the z-score beyond
    which a sample is flagged, and ``influence`` the weight with which
    flagged samples enter the filtered history (0 freezes the baseline
    during peaks, 1 disables the smoothing entirely).  The recurrence
    steps over time once for all rows, with each row's arithmetic that
    of the row alone.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2:
        raise ValueError(f"expected an (S, n) stack, got shape {stack.shape}")
    n = stack.shape[1]
    if not 1 <= lag < n:
        raise ValueError(f"lag must be in [1, {n}), got {lag}")
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if not 0 <= influence <= 1:
        raise ValueError(f"influence must be in [0, 1], got {influence}")

    flagged = np.zeros(stack.shape, dtype=bool)
    filtered = stack.copy()
    weighted = influence * stack
    moving_mean = np.zeros(stack.shape)
    moving_std = np.zeros(stack.shape)
    moving_mean[:, lag - 1] = filtered[:, :lag].mean(axis=1)
    moving_std[:, lag - 1] = filtered[:, :lag].std(axis=1)

    for i in range(lag, n):
        mean, std = moving_mean[:, i - 1], moving_std[:, i - 1]
        hit = (np.abs(stack[:, i] - mean) > threshold * std) & (std > 0)
        flagged[:, i] = hit
        filtered[:, i] = np.where(
            hit, weighted[:, i] + (1.0 - influence) * filtered[:, i - 1], stack[:, i]
        )
        # np.mean and np.std of the window, spelled out: the same
        # reductions in the same order, without their per-call overhead.
        window = filtered[:, i - lag + 1 : i + 1]
        mean = window.sum(axis=1) / lag
        centred = window - mean[:, None]
        moving_mean[:, i] = mean
        moving_std[:, i] = np.sqrt((centred * centred).sum(axis=1) / lag)

    signals = np.zeros(stack.shape, dtype=int)
    deviation = stack[:, 1:] - moving_mean[:, :-1]
    signals[:, 1:] = np.where(flagged[:, 1:], np.sign(deviation), 0)
    return [
        PeakDetection(*row, threshold=threshold, lag=lag, influence=influence)
        for row in zip(signals, filtered, moving_mean, moving_std)
    ]


def smoothed_zscore(
    series: np.ndarray,
    lag: int,
    threshold: float = 3.0,
    influence: float = 0.4,
) -> PeakDetection:
    """The detector on one 1-D series (see :func:`smoothed_zscore_rows`)."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {series.shape}")
    return smoothed_zscore_rows(series[None, :], lag, threshold, influence)[0]


def sample_lag(axis: TimeAxis, lag_hours: float = 2.0) -> int:
    """The smoothing interval (the paper's is 2 hours) in samples, at least 2."""
    return max(2, int(round(lag_hours * axis.bins_per_hour)))


def detect_peaks(
    series: np.ndarray,
    axis: TimeAxis,
    lag_hours: float = 2.0,
    threshold: float = 3.0,
    influence: float = 0.4,
) -> PeakDetection:
    """Paper-parameterized detection on a weekly series."""
    return smoothed_zscore(series, sample_lag(axis, lag_hours), threshold, influence)


__all__ = [
    "PeakDetection",
    "smoothed_zscore_rows",
    "smoothed_zscore",
    "sample_lag",
    "detect_peaks",
]
