"""§2-§3 in-text statistics: DPI coverage and pipeline properties.

Paper claims: the operator's DPI classifies 88 % of the mobile traffic;
geo-referencing works through ULI inspection on GTP-C with updates only
at session establishment and RA/TA or inter-RAT handovers; the commune
aggregation anonymizes the data.

This experiment exercises the *session-level* measurement chain — the
full substrate — at reduced scale, and verifies its statistics.

Paper §2-§3 (dataset).  Reproduced finding: the DPI engine classifies
≈88 % of the traffic volume and aggregation anonymizes the records.
"""

from __future__ import annotations

from repro.dataset.builder import build_session_level_dataset
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.fidelity.extract import register_check_extractor
from repro.geo.country import CountryConfig
from repro.report.tables import format_table

EXPERIMENT_ID = "text"
TITLE = "In-text statistics: DPI coverage, probe pipeline, anonymization"
PAPER_SECTION = "§2-§3"
FINDING = "the DPI classifies ≈88 % of volume; aggregation anonymizes"


def run(
    ctx: ExperimentContext,
    n_subscribers: int = 1_500,
    n_communes: int = 225,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    artifacts = build_session_level_dataset(
        n_subscribers=n_subscribers,
        country_config=CountryConfig(n_communes=n_communes),
        audit_localization=True,
        seed=ctx.seed,
    )
    dataset = artifacts.dataset
    generator = artifacts.extras["generator"]
    probe = artifacts.extras["probe"]
    report = artifacts.dpi_report

    rows = [
        ("subscribers simulated", n_subscribers),
        ("sessions generated", generator.sessions_generated),
        ("flows generated", generator.flows_generated),
        ("GTP-C messages probed", probe.stats.control_messages),
        ("GTP-U records probed", probe.stats.user_packets),
        ("DPI flow coverage", f"{100 * report.flow_coverage:.1f}%"),
        ("DPI byte coverage", f"{100 * report.byte_coverage:.1f}%"),
        ("dataset classified fraction", f"{100 * dataset.classified_fraction:.1f}%"),
    ]
    result.blocks.append(format_table(("metric", "value"), rows))
    result.data["dataset"] = dataset
    result.data["dpi_report"] = report

    result.check_range(
        "DPI byte coverage",
        report.byte_coverage,
        0.83,
        0.93,
        "these operations can classify 88 % of the mobile traffic",
    )
    result.add_check(
        "probe correlates both planes",
        probe.stats.records,
        "probes inspect GTP-C for ULI and GTP-U for traffic",
        probe.stats.records > 0 and probe.stats.orphan_packets == 0,
    )
    handover = generator.handover_stats
    result.add_check(
        "ULI updates only on RA/RAT events",
        handover.stale_moves,
        "the ULI is updated upon possibly infrequent events",
        handover.stale_moves > 0 and handover.updates > 0,
    )
    auditor = artifacts.extras["auditor"]
    audit = auditor.summary()
    result.blocks.append(
        format_table(
            ("localization metric", "value"),
            [
                ("audited flows", int(audit["samples"])),
                ("median ULI error", f"{audit['median_error_km']:.1f} km"),
                ("p90 ULI error", f"{audit['p90_error_km']:.1f} km"),
                ("commune accuracy", f"{100 * audit['commune_accuracy']:.1f}%"),
            ],
        )
    )
    result.check_range(
        "median ULI localization error (km)",
        audit["median_error_km"],
        0.5,
        6.0,
        "prior analyses showed a median ULI error around 3 km",
    )
    result.add_check(
        "commune tessellation absorbs the ULI error",
        audit["commune_accuracy"],
        "aggregation at commune level is appropriate for this accuracy",
        audit["commune_accuracy"] > 0.9,
    )
    total = dataset.total_volume()
    ul = float(dataset.national_ul.sum())
    result.check_range(
        "uplink share of session-level load",
        ul / total if total else 0.0,
        None,
        0.07,
        "uplink accounts for less than one twentieth of the load",
    )
    return result



# The headline quantities the fidelity scorecard reads off this
# figure's checks (repro.fidelity.contract declares the bands).
register_check_extractor(
    EXPERIMENT_ID,
    {
        "text.dpi_byte_coverage": "DPI byte coverage",
        "text.median_uli_error_km": "median ULI localization error (km)",
    },
)

__all__ = ["EXPERIMENT_ID", "TITLE", "run"]
