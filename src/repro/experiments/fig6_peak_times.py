"""Fig. 6 — activity peak times of mobile services.

Paper claims: applying the smoothed z-score detector to all services,
peaks appear only at seven specific moments of the week (the topical
times); individual services have very diverse peak patterns, the
heterogeneity separates services of a same category; almost all
services peak at workday midday; large sets peak at the afternoon
commute and weekend evenings; the morning-break peak singles out
student-heavy services (SnapChat, Instagram, Facebook, Twitter).

Paper §4 (temporal analysis).  Reproduced finding: peaks land only on
the seven topical times, in service-specific combinations.
"""

from __future__ import annotations

from repro.core.topical import derive_topical_moments, signature_matrix
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.fidelity.extract import register_check_extractor
from repro.report.tables import format_table
from repro.services.profiles import TopicalTime

EXPERIMENT_ID = "fig6"
TITLE = "Activity peak times of mobile services (topical-time signatures)"
PAPER_SECTION = "§4"
FINDING = "peaks land only on seven topical times, in service-specific sets"

_STUDENT_SERVICES = ("SnapChat", "Instagram", "Facebook", "Twitter")


def run(ctx: ExperimentContext) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    axis = ctx.fine_axis
    names = ctx.head_names

    signatures = ctx.peak_signatures("dl")
    matrix, row_names, topicals = signature_matrix(signatures)
    result.data["matrix"] = matrix
    result.data["signatures"] = signatures

    short = {
        TopicalTime.MORNING_COMMUTE: "MC",
        TopicalTime.MORNING_BREAK: "MB",
        TopicalTime.MIDDAY: "MD",
        TopicalTime.AFTERNOON_COMMUTE: "AC",
        TopicalTime.EVENING: "EV",
        TopicalTime.WEEKEND_MIDDAY: "WM",
        TopicalTime.WEEKEND_EVENING: "WE",
    }
    rows = []
    for i, name in enumerate(row_names):
        rows.append(
            [name] + ["x" if matrix[i, j] else "." for j in range(len(topicals))]
        )
    result.blocks.append(
        format_table(
            ["service"] + [short[t] for t in topicals],
            rows,
            title="Peak signature per service (x = peak detected)",
        )
    )

    # The discovery step: the recurring moments found in the data.
    moments = derive_topical_moments(signatures, axis)
    result.data["derived_moments"] = moments
    result.blocks.append(
        format_table(
            ("day type", "hour", "services", "share of peaks"),
            [
                (
                    "weekend" if m.weekend else "workday",
                    f"{m.hour:.1f}",
                    f"{m.support}/{len(names)}",
                    f"{100 * m.share_of_fronts:.1f}%",
                )
                for m in moments
            ],
            title="Peak moments derived from the data",
        )
    )
    strong = [m for m in moments if m.support >= 0.5 * len(names)]
    result.check_range(
        "number of strong recurring moments",
        len(strong),
        5,
        9,
        "peaks only appear at seven specific moments",
    )

    # Diversity of patterns.
    patterns = {frozenset(s.topical_times) for s in signatures}
    result.check_range(
        "distinct peak patterns among 20 services",
        len(patterns),
        8,
        None,
        "individual services have very diverse patterns",
    )
    midday_share = matrix[:, topicals.index(TopicalTime.MIDDAY)].mean()
    result.check_range(
        "share of services peaking at workday midday",
        float(midday_share),
        0.75,
        None,
        "almost all services show increased usage at midday",
    )
    ac_count = int(matrix[:, topicals.index(TopicalTime.AFTERNOON_COMMUTE)].sum())
    result.check_range(
        "services peaking at afternoon commute",
        ac_count,
        6,
        None,
        "large sets of services peak at the afternoon commuting time",
    )
    we_count = int(matrix[:, topicals.index(TopicalTime.WEEKEND_EVENING)].sum())
    result.check_range(
        "services peaking on weekend evenings",
        we_count,
        6,
        None,
        "large sets of services peak during weekend evenings",
    )
    mb_index = topicals.index(TopicalTime.MORNING_BREAK)
    student_hits = sum(
        matrix[row_names.index(s), mb_index] for s in _STUDENT_SERVICES
    )
    result.check_range(
        "student services with morning-break peaks",
        student_hits,
        3,
        None,
        "morning-break peaks include SnapChat, Instagram, Facebook, Twitter",
    )

    # Within-category heterogeneity: the five video-streaming services
    # should not share one pattern.
    video = ("YouTube", "iTunes", "Facebook Video", "Instagram video", "Netflix")
    video_patterns = {
        frozenset(signatures[row_names.index(v)].topical_times) for v in video
    }
    result.check_range(
        "distinct patterns among video streaming services",
        len(video_patterns),
        3,
        None,
        "video streaming behaves differently across platforms",
    )
    return result



# The headline quantities the fidelity scorecard reads off this
# figure's checks (repro.fidelity.contract declares the bands).
register_check_extractor(
    EXPERIMENT_ID,
    {
        "fig6.strong_recurring_moments": "number of strong recurring moments",
        "fig6.midday_service_share": "share of services peaking at workday midday",
    },
)

__all__ = ["EXPERIMENT_ID", "TITLE", "run"]
