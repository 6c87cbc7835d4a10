"""Topical-time analysis: peak signatures (Fig. 6) and intensities (Fig. 7).

Applying the smoothed z-score detector to all services, the paper finds
that peaks "only appear at seven specific moments during the week" — the
topical times.  This module:

- maps detected peak fronts onto the seven topical-time windows
  (:func:`topical_windows`);
- summarizes each service's peak pattern as a set of topical times
  (:func:`peak_signatures`, the content of Fig. 6): one batched detector
  pass over the ``(S, n)`` stack of services, with :func:`peak_signature`
  its one-row case;
- computes per-(service, topical-time) peak intensities as the paper
  does: "the ratio between the maximum and minimum traffic volumes
  recorded during the peak intervals as detected by the smoothed z-score
  algorithm" (:func:`peak_intensities`, Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._time import TimeAxis
from repro.core.peaks import PeakDetection, sample_lag, smoothed_zscore_rows
from repro.services.profiles import TopicalTime

#: Half-width, in hours, of the window around a topical time within
#: which a detected peak front is attributed to it.
WINDOW_HALF_WIDTH_HOURS = 1.5


def topical_windows(
    axis: TimeAxis, half_width_hours: float = WINDOW_HALF_WIDTH_HOURS
) -> Dict[TopicalTime, np.ndarray]:
    """Bin masks of each topical-time window over the week."""
    hours = axis.hours()
    day_of_bin = (hours // 24).astype(int)
    hour_of_day = hours % 24
    windows: Dict[TopicalTime, np.ndarray] = {}
    for topical in TopicalTime:
        in_days = np.isin(day_of_bin, topical.days)
        in_hours = np.abs(hour_of_day - topical.hour) <= half_width_hours
        windows[topical] = in_days & in_hours
    return windows


def classify_front(
    front_bin: int, axis: TimeAxis, half_width_hours: float = WINDOW_HALF_WIDTH_HOURS
) -> Optional[TopicalTime]:
    """Attribute one detected peak front to a topical time (or None)."""
    day = axis.day_of_bin(front_bin)
    hour = axis.hour_of_bin(front_bin)
    best: Optional[TopicalTime] = None
    best_gap = half_width_hours
    for topical in TopicalTime:
        if day not in topical.days:
            continue
        gap = abs(hour - topical.hour)
        if gap <= best_gap:
            best, best_gap = topical, gap
    return best


@dataclass
class PeakSignature:
    """One service's detected peak pattern."""

    service_name: str
    #: Topical times at which at least one peak was detected.
    topical_times: Tuple[TopicalTime, ...]
    #: Bin indices of all detected rising fronts.
    fronts: np.ndarray
    #: Apexes of genuine (local-maximum) peaks outside every topical
    #: window.
    unattributed_fronts: np.ndarray
    detection: PeakDetection
    #: (start, end, topical) of every attributed peak interval.
    attributed_intervals: Tuple[Tuple[int, int, TopicalTime], ...] = ()
    #: Bin of each genuine peak's moment (apex for local maxima, rising
    #: front for peaks riding the diurnal ramp), attributed or not.
    moment_bins: Tuple[int, ...] = ()

    def has_peak(self, topical: TopicalTime) -> bool:
        return topical in self.topical_times


def peak_signatures(
    matrix: np.ndarray,
    axis: TimeAxis,
    names: Sequence[str],
    lag_hours: float = 2.0,
    threshold: float = 3.0,
    influence: float = 0.4,
    local_max_window_hours: float = 1.5,
) -> List[PeakSignature]:
    """Detect peaks in each national series and map them to topical times.

    ``matrix`` is an ``(S, n)`` stack with one row per name, run through
    one batched detector pass.  Each detected interval is attributed in
    two steps:

    1. if the interval's apex is a genuine local maximum of the signal
       (traffic falls back within ``local_max_window_hours``), the apex
       time selects the topical window;
    2. otherwise the interval's rising front does — this catches peaks
       riding the diurnal ramp (e.g. a morning-commute bump that keeps
       climbing toward midday afterwards).

    Intervals matching neither are threshold crossings of the diurnal
    trend itself, not activity peaks, and are dropped; local-maximum
    peaks outside every window are reported as unattributed.
    """
    matrix = np.asarray(matrix, dtype=float)
    lag = sample_lag(axis, lag_hours)
    detections = smoothed_zscore_rows(matrix, lag, threshold, influence)
    if len(names) != len(detections):
        raise ValueError(f"got {len(names)} names for {len(detections)} series")
    half = max(1, int(round(local_max_window_hours * axis.bins_per_hour)))
    signatures = []
    for series, detection, service_name in zip(matrix, detections, names):
        attributed: List[TopicalTime] = []
        intervals: List[Tuple[int, int, TopicalTime]] = []
        moments: List[int] = []
        orphans: List[int] = []
        for start, end in detection.peak_intervals():
            apex = int(start + np.argmax(series[start : max(start + 1, end)]))
            lo, hi = max(0, apex - half), min(len(series), apex + half + 1)
            is_local_max = series[apex] >= series[lo:hi].max()
            topical = classify_front(apex, axis) if is_local_max else None
            moment = apex
            if topical is None:
                topical, moment = classify_front(int(start), axis), int(start)
            if topical is None:
                if is_local_max:
                    orphans.append(apex)
                    moments.append(apex)
                continue
            moments.append(moment)
            intervals.append((int(start), int(end), topical))
            if topical not in attributed:
                attributed.append(topical)
        signatures.append(
            PeakSignature(
                service_name=service_name,
                topical_times=tuple(attributed),
                fronts=detection.rising_fronts(),
                unattributed_fronts=np.asarray(orphans, dtype=int),
                detection=detection,
                attributed_intervals=tuple(intervals),
                moment_bins=tuple(moments),
            )
        )
    return signatures


def peak_signature(
    series: np.ndarray,
    axis: TimeAxis,
    service_name: str = "",
    lag_hours: float = 2.0,
    threshold: float = 3.0,
    influence: float = 0.4,
    local_max_window_hours: float = 1.5,
) -> PeakSignature:
    """One series' peak signature (see :func:`peak_signatures`)."""
    return peak_signatures(
        np.asarray(series, dtype=float)[None, :], axis, [service_name],
        lag_hours, threshold, influence, local_max_window_hours,
    )[0]


def signature_matrix(
    signatures: List[PeakSignature],
) -> Tuple[np.ndarray, List[str], List[TopicalTime]]:
    """Stack signatures into the boolean service × topical matrix of Fig. 6."""
    topicals = list(TopicalTime)
    names = [s.service_name for s in signatures]
    matrix = np.zeros((len(signatures), len(topicals)), dtype=bool)
    for i, signature in enumerate(signatures):
        for j, topical in enumerate(topicals):
            matrix[i, j] = signature.has_peak(topical)
    return matrix, names, topicals


def peak_intensities(
    series: np.ndarray,
    signature: PeakSignature,
    axis: TimeAxis,
) -> Dict[TopicalTime, float]:
    """Peak intensity per topical time, as in Fig. 7.

    For each topical time at which the service peaks, the intensity is
    the max/min traffic ratio over the detected peak intervals that fall
    in that topical window, expressed (as in the paper's percent axes) as
    ``max/min - 1``: a value of 0.4 means the peak rises 40 % above the
    local minimum.  Intervals are padded by one lag so the pre-peak
    baseline is included in the minimum.
    """
    series = np.asarray(series, dtype=float)
    lag = signature.detection.lag
    out: Dict[TopicalTime, float] = {}
    for start, end, topical in signature.attributed_intervals:
        lo = max(0, start - lag)
        hi = min(len(series), end + 1)
        segment = series[lo:hi]
        low = float(segment.min())
        high = float(segment.max())
        if low <= 0:
            continue
        intensity = high / low - 1.0
        out[topical] = max(out.get(topical, 0.0), intensity)
    return out


@dataclass(frozen=True)
class DerivedMoment:
    """A peak moment discovered from the data (not assumed a priori)."""

    weekend: bool
    hour: float  # modal hour of day
    support: int  # number of services with a front in this mode
    share_of_fronts: float  # fraction of all fronts belonging to the mode


def derive_topical_moments(
    signatures: List[PeakSignature],
    axis: TimeAxis,
    min_support_fraction: float = 0.25,
    merge_gap_hours: float = 2.0,
) -> List[DerivedMoment]:
    """Discover the recurring peak moments across all services.

    The paper *finds* (rather than assumes) that "peaks only appear at
    seven specific moments during the week".  This function reproduces
    that discovery step: all detected rising fronts are histogrammed by
    (day type, hour of day), adjacent busy hours are merged into modes,
    and modes supported by at least ``min_support_fraction`` of the
    services are reported.
    """
    if not signatures:
        raise ValueError("need at least one peak signature")
    if not 0 < min_support_fraction <= 1:
        raise ValueError(
            f"min_support_fraction must be in (0, 1], got {min_support_fraction}"
        )
    n_services = len(signatures)
    total_fronts = 0
    # (weekend, hour) -> set of service indices, count of peaks.  The
    # apex of each peak interval marks where the topical moment sits
    # (rising fronts precede it); apexes that are not local maxima of the
    # signal are diurnal-trend crossings and carry no moment.
    support: Dict[Tuple[bool, int], set] = {}
    counts: Dict[Tuple[bool, int], int] = {}
    for idx, signature in enumerate(signatures):
        for moment in signature.moment_bins:
            key = (axis.is_weekend_bin(moment), int(axis.hour_of_bin(moment)))
            support.setdefault(key, set()).add(idx)
            counts[key] = counts.get(key, 0) + 1
            total_fronts += 1
    if total_fronts == 0:
        return []

    min_support = min_support_fraction * n_services
    half_merge = max(1, int(round(merge_gap_hours / 2.0)))
    moments: List[DerivedMoment] = []
    for weekend in (False, True):
        by_hour = np.zeros(24)
        for (we, h), services in support.items():
            if we is weekend:
                by_hour[h] = len(services)
        # A moment is a local maximum of the support histogram with
        # enough service coverage; neighbours within the merge gap fold
        # into it.
        for h in range(24):
            if by_hour[h] < min_support:
                continue
            lo, hi = max(0, h - half_merge), min(24, h + half_merge + 1)
            window = by_hour[lo:hi]
            if by_hour[h] < window.max():
                continue
            if by_hour[h] == window.max() and np.argmax(window) + lo != h:
                continue  # ties resolve to the earliest hour
            services = set()
            fronts = 0
            weight = 0.0
            for hh in range(lo, hi):
                key = (weekend, hh)
                if key in support:
                    services |= support[key]
                    fronts += counts[key]
                    weight += counts[key] * (hh + 0.5)
            if not fronts or len(services) < min_support:
                continue
            moments.append(
                DerivedMoment(
                    weekend=weekend,
                    hour=weight / fronts,
                    support=len(services),
                    share_of_fronts=fronts / total_fronts,
                )
            )
    moments.sort(key=lambda m: m.support, reverse=True)
    return moments


__all__ = [
    "WINDOW_HALF_WIDTH_HOURS",
    "topical_windows",
    "classify_front",
    "PeakSignature",
    "peak_signatures",
    "peak_signature",
    "signature_matrix",
    "peak_intensities",
    "DerivedMoment",
    "derive_topical_moments",
]
