"""Fig. 7 — peak-to-average ratios per service at each topical time.

Paper claims: services with demand peaks at the same topical time
undergo very diverse variations of activity (intensities differ widely);
midday and morning-commute peaks reach >100 % for some services while
weekend peaks stay within a few tens of percent.

Paper §4 (temporal analysis).  Reproduced finding: services sharing a
topical time still peak with widely different intensities.
"""

from __future__ import annotations

import numpy as np

from repro.core.topical import peak_intensities
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.fidelity.extract import register_check_extractor
from repro.report.tables import format_table
from repro.services.profiles import TopicalTime

EXPERIMENT_ID = "fig7"
TITLE = "Peak intensity per service at each topical time"
PAPER_SECTION = "§4"
FINDING = "peak intensities differ widely among services sharing a time"


def run(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    axis = ctx.fine_axis
    series = ctx.national_series_fine("dl")
    names = ctx.head_names

    intensities = {}
    for name, row, signature in zip(names, series, ctx.peak_signatures("dl")):
        intensities[name] = peak_intensities(row, signature, axis)
    result.data["intensities"] = intensities

    for topical in TopicalTime:
        values = {
            name: per_service[topical]
            for name, per_service in intensities.items()
            if topical in per_service
        }
        if not values:
            continue
        rows = [
            (name, f"{100 * value:.0f}%")
            for name, value in sorted(values.items(), key=lambda i: -i[1])
        ]
        result.blocks.append(
            format_table(
                ("service", "peak intensity"),
                rows,
                title=topical.value,
            )
        )
        result.data[topical.value] = values

        if len(values) >= 4:
            spread = max(values.values()) / max(min(values.values()), 1e-9)
            result.check_range(
                f"intensity spread at {topical.value}",
                spread,
                1.5,
                None,
                "services peaking at the same time undergo very diverse variations",
            )

    midday = result.data.get(TopicalTime.MIDDAY.value, {})
    if midday:
        result.check_range(
            "strongest midday peak",
            max(midday.values()),
            0.8,
            None,
            "midday intensities reach and exceed 100 % for some services",
        )
    weekend_md = result.data.get(TopicalTime.WEEKEND_MIDDAY.value, {})
    if weekend_md:
        result.check_range(
            "median weekend-midday peak",
            float(np.median(list(weekend_md.values()))),
            None,
            1.2,
            "weekend intensities stay within a few tens of percent",
        )
    return result



# The headline quantities the fidelity scorecard reads off this
# figure's checks (repro.fidelity.contract declares the bands).
register_check_extractor(
    EXPERIMENT_ID,
    {
        "fig7.strongest_midday_peak": "strongest midday peak",
        "fig7.median_weekend_midday_peak": "median weekend-midday peak",
    },
)

__all__ = ["EXPERIMENT_ID", "TITLE", "run"]
