"""Fig. 4 — sample weekly time series with smoothed z-score detection.

Paper claims: classic diurnal patterns (higher daytime activity, reduced
overnight traffic) and a weekend/working-day dichotomy, with
service-specific fluctuation patterns; the smoothed z-score algorithm
(threshold 3, lag 2 h, influence 0.4) marks the activity peaks.

Paper §4 (temporal analysis).  Reproduced finding: classic diurnal and
weekly rhythms, but with service-specific peak arrangements.
"""

from __future__ import annotations

import numpy as np

from repro._time import DAY_NAMES
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.fidelity.extract import register_check_extractor
from repro.report.series import render_series

EXPERIMENT_ID = "fig4"
TITLE = "Sample service time series and smoothed z-score peak detection"
PAPER_SECTION = "§4"
FINDING = "diurnal weekly rhythms with service-specific peak arrangements"

#: The four sample services the paper plots.
SAMPLE_SERVICES = ("Facebook", "SnapChat", "Netflix", "Apple store")


def run(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    axis = ctx.fine_axis
    series = ctx.national_series_fine("dl")
    names = ctx.head_names
    signatures = ctx.peak_signatures("dl")

    result.blocks.append("Week runs " + " ".join(DAY_NAMES) + " (Sat..Fri).")
    for service in SAMPLE_SERVICES:
        j = names.index(service)
        signature = signatures[j]
        result.blocks.append(
            render_series(
                service,
                series[j],
                markers=[int(b) for b in signature.moment_bins],
            )
        )
        result.data[service] = signature

        day_max = _daily_peak_ratio(series[j], axis)
        result.check_range(
            f"{service} day/night ratio",
            day_max,
            2.0,
            None,
            "higher diurnal activity vs much reduced overnight traffic",
        )
        result.add_check(
            f"{service} peaks detected",
            len(signature.moment_bins),
            "the detector marks activity peaks",
            len(signature.moment_bins) > 0,
        )

    # The Facebook illustration (right plots of Fig. 4): signal, smoothed
    # version, and the band.
    j = names.index("Facebook")
    detection = result.data["Facebook"].detection
    monday = slice(2 * 24 * axis.bins_per_hour, 3 * 24 * axis.bins_per_hour)
    result.blocks.append("Facebook, Monday (signal / smoothed / upper band):")
    result.blocks.append(render_series("signal", series[j][monday]))
    result.blocks.append(render_series("smoothed", detection.moving_mean[monday]))
    result.blocks.append(render_series("band", detection.upper_band[monday]))

    # Distinct fluctuation patterns across the samples.
    patterns = {
        s: frozenset(result.data[s].topical_times) for s in SAMPLE_SERVICES
    }
    result.add_check(
        "sample services show different peak arrangements",
        len(set(patterns.values())),
        "other services show other traffic peak arrangements",
        len(set(patterns.values())) >= 3,
    )
    return result


def _daily_peak_ratio(series: np.ndarray, axis) -> float:
    """Median over days of (daily max / daily min)."""
    per_day = series.reshape(7, -1)
    mins = np.maximum(per_day.min(axis=1), 1e-12)
    return float(np.median(per_day.max(axis=1) / mins))



# The headline quantities the fidelity scorecard reads off this
# figure's checks (repro.fidelity.contract declares the bands).
register_check_extractor(
    EXPERIMENT_ID,
    {
        "fig4.facebook_day_night_ratio": "Facebook day/night ratio",
        "fig4.distinct_peak_arrangements": "sample services show different peak arrangements",
    },
)

__all__ = ["EXPERIMENT_ID", "TITLE", "SAMPLE_SERVICES", "run"]
