"""The findings contract: every headline paper quantity, with bands.

One :class:`FindingSpec` per figure/text statistic the paper reports.
The spec carries the *paper's* number (``target``), the closed
``accept`` band inside which the reproduction counts as on-target, and
a wider closed ``warn`` band for drifting-but-not-broken.  The verdict
of a measured value is:

- ``pass`` — inside the accept band (edges **inclusive**: a value
  exactly on an accept bound passes);
- ``warn`` — outside accept but inside warn (again inclusive: exactly
  on a warn bound warns, never fails);
- ``fail`` — outside both bands, or not finite.

The accept bands deliberately match the experiment layer's
paper-expectation checks where one exists, so a scorecard ``pass``
and a green check never disagree; the warn band adds the early-warning
margin the checks don't have.

Determinism: every finding value is ``seeded`` — a pure function of the
scorecard's ``(seed, n_communes)`` — which is what makes the committed
baseline (``fidelity-baseline.json``) a meaningful gate.

This module is stdlib-only, so ``tools/check_docs.py`` can render the
findings table in ``docs/observability.md`` from it without importing
the simulation stack: change a finding here, then run that script.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

VERDICT_PASS = "pass"
VERDICT_WARN = "warn"
VERDICT_FAIL = "fail"

#: Verdicts ordered best-to-worst; ``gate`` compares by this rank.
VERDICT_ORDER = (VERDICT_PASS, VERDICT_WARN, VERDICT_FAIL)

#: The determinism class of every current finding: a pure function of
#: the scorecard's ``(seed, n_communes)``.
DETERMINISM_SEEDED = "seeded"


@dataclass(frozen=True)
class Band:
    """A closed interval; ``None`` bounds are unbounded."""

    lo: Optional[float] = None
    hi: Optional[float] = None

    def contains(self, value: float) -> bool:
        """Inclusive membership: exactly-on-edge values are inside."""
        if not math.isfinite(value):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def encloses(self, other: "Band") -> bool:
        """True when every value of ``other`` is inside this band."""
        if self.lo is not None and (other.lo is None or other.lo < self.lo):
            return False
        if self.hi is not None and (other.hi is None or other.hi > self.hi):
            return False
        return True

    def to_list(self) -> List[Optional[float]]:
        return [self.lo, self.hi]


@dataclass(frozen=True)
class FindingSpec:
    """The declared contract of one paper finding."""

    name: str
    experiment_id: str
    unit: str
    #: The paper-reported value (or documented threshold for
    #: qualitative claims).
    target: float
    accept: Band
    warn: Band
    #: Figure/section of the paper the number comes from.
    source: str
    description: str
    determinism: str = DETERMINISM_SEEDED


def evaluate(spec: FindingSpec, value: float) -> str:
    """Verdict of a measured value under one spec (see module doc)."""
    if spec.accept.contains(value):
        return VERDICT_PASS
    if spec.warn.contains(value):
        return VERDICT_WARN
    return VERDICT_FAIL


def _finding_table(specs: Iterable[FindingSpec]) -> Dict[str, FindingSpec]:
    table: Dict[str, FindingSpec] = {}
    for spec in specs:
        if spec.name in table:
            raise ValueError(f"duplicate finding spec {spec.name!r}")
        if not spec.warn.encloses(spec.accept):
            raise ValueError(
                f"{spec.name}: warn band {spec.warn} must enclose the "
                f"accept band {spec.accept}"
            )
        if not spec.accept.contains(spec.target):
            raise ValueError(
                f"{spec.name}: paper target {spec.target} lies outside "
                f"the accept band {spec.accept}"
            )
        table[spec.name] = spec
    return table


def _spec(
    name: str,
    experiment_id: str,
    unit: str,
    target: float,
    accept_lo: Optional[float],
    accept_hi: Optional[float],
    warn_lo: Optional[float],
    warn_hi: Optional[float],
    source: str,
    description: str,
) -> FindingSpec:
    return FindingSpec(
        name=name,
        experiment_id=experiment_id,
        unit=unit,
        target=target,
        accept=Band(accept_lo, accept_hi),
        warn=Band(warn_lo, warn_hi),
        source=source,
        description=description,
    )


#: The full findings contract, in paper order.  Accept bands mirror the
#: experiment checks; warn bands add roughly half a band of margin.
FINDINGS: Dict[str, FindingSpec] = _finding_table(
    [
        # --- Fig. 2: service ranking ---------------------------------
        _spec(
            "fig2.dl_zipf_exponent", "fig2", "exponent",
            1.6, 1.15, 2.05, 0.9, 2.3,
            "Fig. 2, §3",
            "Zipf exponent fitted over the top half of the DL ranking",
        ),
        _spec(
            "fig2.dl_volume_span_decades", "fig2", "decades",
            10.0, 7.0, None, 5.5, None,
            "Fig. 2, §3",
            "orders of magnitude spanned by per-service DL volumes",
        ),
        # --- Fig. 3: top services ------------------------------------
        _spec(
            "fig3.video_dl_share", "fig3", "fraction",
            0.46, 0.40, 0.55, 0.33, 0.62,
            "Fig. 3, §3",
            "video streaming share of classified downlink volume",
        ),
        _spec(
            "fig3.uplink_fraction", "fig3", "fraction",
            0.05, None, 0.05, None, 0.08,
            "Fig. 3, §3",
            "uplink share of the total load (under one twentieth)",
        ),
        # --- Fig. 4: weekly time series ------------------------------
        _spec(
            "fig4.facebook_day_night_ratio", "fig4", "ratio",
            3.0, 2.0, None, 1.5, None,
            "Fig. 4, §4",
            "median daily max/min of the Facebook national series",
        ),
        _spec(
            "fig4.distinct_peak_arrangements", "fig4", "patterns",
            4.0, 3.0, None, 2.0, None,
            "Fig. 4, §4",
            "distinct topical-time patterns among the sample services",
        ),
        # --- Fig. 5: k-shape clustering ------------------------------
        _spec(
            "fig5.dl_best_silhouette", "fig5", "silhouette",
            0.3, None, 0.55, None, 0.65,
            "Fig. 5, §4",
            "best silhouette over all k (no stable grouping exists)",
        ),
        _spec(
            "fig5.dl_largest_cluster_share", "fig5", "fraction",
            0.5, None, 0.95, None, 0.98,
            "Fig. 5, §4",
            "largest-cluster share at the smallest k (no catch-all)",
        ),
        # --- Fig. 6: topical peak times ------------------------------
        _spec(
            "fig6.strong_recurring_moments", "fig6", "moments",
            7.0, 5.0, 9.0, 4.0, 10.0,
            "Fig. 6, §4",
            "recurring peak moments derived from the data (paper: 7)",
        ),
        _spec(
            "fig6.midday_service_share", "fig6", "fraction",
            0.9, 0.75, 1.0, 0.6, 1.0,
            "Fig. 6, §4",
            "share of services peaking at workday midday (almost all)",
        ),
        # --- Fig. 7: peak intensities --------------------------------
        _spec(
            "fig7.strongest_midday_peak", "fig7", "fraction",
            1.0, 0.8, None, 0.6, None,
            "Fig. 7, §4",
            "strongest midday peak intensity (reaches/exceeds 100 %)",
        ),
        _spec(
            "fig7.median_weekend_midday_peak", "fig7", "fraction",
            0.3, None, 1.2, None, 1.5,
            "Fig. 7, §4",
            "median weekend-midday intensity (a few tens of percent)",
        ),
        # --- Fig. 8: Twitter geography -------------------------------
        _spec(
            "fig8.top1pct_commune_share", "fig8", "fraction",
            0.5, 0.40, None, 0.30, None,
            "Fig. 8, §5",
            "Twitter DL share of the top 1 % of communes (over 50 %)",
        ),
        _spec(
            "fig8.top10pct_commune_share", "fig8", "fraction",
            0.9, 0.75, None, 0.60, None,
            "Fig. 8, §5",
            "Twitter DL share of the top 10 % of communes (over 90 %)",
        ),
        # --- Fig. 9: demand maps -------------------------------------
        _spec(
            "fig9.commune_coverage_4g", "fig9", "fraction",
            0.55, 0.25, 0.85, 0.15, 0.95,
            "Fig. 9, §5",
            "4G commune coverage (concentrated on cities and arteries)",
        ),
        _spec(
            "fig9.netflix_urban_rural_contrast", "fig9", "ratio",
            8.0, 6.0, None, 4.0, None,
            "Fig. 9, §5",
            "Netflix urban/rural per-subscriber ratio (rural absence)",
        ),
        # --- Fig. 10: spatial correlation ----------------------------
        _spec(
            "fig10.dl_mean_r2", "fig10", "r2",
            0.60, 0.42, 0.78, 0.35, 0.85,
            "Fig. 10, §5",
            "mean pairwise spatial r2 between services, downlink",
        ),
        _spec(
            "fig10.ul_mean_r2", "fig10", "r2",
            0.53, 0.35, 0.71, 0.28, 0.78,
            "Fig. 10, §5",
            "mean pairwise spatial r2 between services, uplink",
        ),
        # --- Fig. 11: urbanization -----------------------------------
        _spec(
            "fig11.semi_urban_volume_ratio", "fig11", "ratio",
            1.0, 0.75, 1.15, 0.6, 1.3,
            "Fig. 11, §6",
            "semi-urban/urban per-subscriber volume ratio (close to 1)",
        ),
        _spec(
            "fig11.rural_volume_ratio", "fig11", "ratio",
            0.5, 0.30, 0.70, 0.2, 0.8,
            "Fig. 11, §6",
            "rural/urban per-subscriber volume ratio (about one half)",
        ),
        _spec(
            "fig11.tgv_volume_ratio", "fig11", "ratio",
            2.0, 1.8, None, 1.4, None,
            "Fig. 11, §6",
            "TGV/urban per-subscriber volume ratio (twice or more)",
        ),
        _spec(
            "fig11.non_tgv_temporal_r2", "fig11", "r2",
            0.9, 0.75, None, 0.65, None,
            "Fig. 11, §6",
            "mean temporal r2 among urban/semi-urban/rural regions",
        ),
        # --- §2-§3 text statistics -----------------------------------
        _spec(
            "text.dpi_byte_coverage", "text", "fraction",
            0.88, 0.83, 0.93, 0.78, 0.96,
            "§2",
            "fraction of traffic volume the DPI engine classifies",
        ),
        _spec(
            "text.median_uli_error_km", "text", "km",
            3.0, 0.5, 6.0, 0.25, 8.0,
            "§3",
            "median ULI localization error of the probe chain",
        ),
    ]
)


def finding_names() -> List[str]:
    """All declared finding names, sorted."""
    return sorted(FINDINGS)


def findings_for(experiment_id: str) -> List[FindingSpec]:
    """The specs one experiment must produce, in declaration order."""
    return [
        spec for spec in FINDINGS.values()
        if spec.experiment_id == experiment_id
    ]


def covered_experiments() -> List[str]:
    """Experiment ids the contract draws findings from, sorted."""
    return sorted({spec.experiment_id for spec in FINDINGS.values()})


__all__ = [
    "Band",
    "DETERMINISM_SEEDED",
    "FINDINGS",
    "FindingSpec",
    "VERDICT_FAIL",
    "VERDICT_ORDER",
    "VERDICT_PASS",
    "VERDICT_WARN",
    "covered_experiments",
    "evaluate",
    "finding_names",
    "findings_for",
]
