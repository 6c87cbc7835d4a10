"""Fidelity scorecard: the observable paper-findings contract.

Tests assert that the code *runs*; this package asserts that the
reproduction is *on target*.  Every headline quantity of the paper —
mean spatial r² ≈ 0.60 DL / 0.53 UL (Fig. 10), the seven topical peak
times (Fig. 6), rural ≈ ½ urban per-subscriber volume and TGV ≥ 2×
(Fig. 11), the 88 % DPI coverage (§2), … — is declared once in
:data:`repro.fidelity.contract.FINDINGS` with its unit, paper-reported
target and accept/warn tolerance bands.  The scorecard engine
(:mod:`repro.fidelity.scorecard`) runs the experiment layer, extracts
each quantity through the per-figure extractors the experiment modules
register (:mod:`repro.fidelity.extract`), and emits a versioned JSON
scorecard with a pass/warn/fail verdict per finding.

``repro-scorecard`` is the CLI (``run`` / ``show`` / ``diff`` /
``gate``); ``gate`` exits nonzero when any finding's verdict worsens
against a committed baseline scorecard (``fidelity-baseline.json``), so
a change that silently drifts a figure fails CI even while every test
stays green.

:mod:`~repro.fidelity.contract` and :mod:`~repro.fidelity.extract` are
stdlib-only so tooling (``tools/check_docs.py``, which renders the docs'
findings table from the contract, and ``show``/``diff``/``gate``) can
load the contract without the simulation stack; only ``run`` imports
the experiment layer.
"""

from repro.fidelity.contract import (
    FINDINGS,
    Band,
    FindingSpec,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_WARN,
    evaluate,
    finding_names,
    findings_for,
)
from repro.fidelity.extract import (
    EXTRACTORS,
    check_value,
    extract,
    register_check_extractor,
    register_extractor,
)
from repro.fidelity.scorecard import (
    SCHEMA,
    ScorecardDiff,
    diff_scorecards,
    gate_scorecard,
    load_scorecard,
    render_scorecard_json,
    render_scorecard_text,
    run_scorecard,
)

__all__ = [
    "Band",
    "EXTRACTORS",
    "FINDINGS",
    "FindingSpec",
    "SCHEMA",
    "ScorecardDiff",
    "VERDICT_FAIL",
    "VERDICT_PASS",
    "VERDICT_WARN",
    "check_value",
    "diff_scorecards",
    "evaluate",
    "extract",
    "finding_names",
    "findings_for",
    "gate_scorecard",
    "load_scorecard",
    "register_check_extractor",
    "register_extractor",
    "render_scorecard_json",
    "render_scorecard_text",
    "run_scorecard",
]
