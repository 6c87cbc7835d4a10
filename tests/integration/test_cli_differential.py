"""A differential test through the command-line entry points.

``repro-dataset build --session`` followed by ``repro-serve query``
must give the same bytes as the in-process path: the saved npz digests
to the value of ``build_session_level_dataset(...).dataset.save``, and
each printed answer is the in-process ``ServeEngine``'s canonical
answer.  ``repro-scorecard run --out`` must write the bytes of
``render_scorecard_json(run_scorecard(...))``, and its analysis
findings must read the committed fidelity baseline's values.
"""

import json
from pathlib import Path

import pytest

from repro._exit import EXIT_OK
from repro.dataset.builder import build_session_level_dataset
from repro.dataset.cli import main as main_dataset
from repro.fidelity.cli import main as main_scorecard
from repro.fidelity.scorecard import (
    load_scorecard,
    render_scorecard_json,
    run_scorecard,
)
from repro.geo.country import CountryConfig
from repro.serve.cli import main as main_serve
from repro.serve.engine import ServeEngine
from repro.serve.queries import parse_query

from .test_build_golden import npz_digest

N_SUBSCRIBERS = 200
N_COMMUNES = 64
SEED = 5

BASELINE = Path(__file__).resolve().parents[2] / "fidelity-baseline.json"


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """The CLI-built npz path and the in-process artifacts."""
    tmp = tmp_path_factory.mktemp("cli-differential")
    cli_path = tmp / "cli.npz"
    assert main_dataset(
        [
            "build",
            "--session",
            "--subscribers", str(N_SUBSCRIBERS),
            "--communes", str(N_COMMUNES),
            "--seed", str(SEED),
            "--out", str(cli_path),
        ]
    ) == EXIT_OK
    artifacts = build_session_level_dataset(
        n_subscribers=N_SUBSCRIBERS,
        country_config=CountryConfig(n_communes=N_COMMUNES),
        seed=SEED,
    )
    in_process_path = artifacts.dataset.save(tmp / "in_process.npz")
    return cli_path, in_process_path, artifacts


def test_cli_build_matches_in_process_digest(builds):
    cli_path, in_process_path, _ = builds
    assert npz_digest(cli_path) == npz_digest(in_process_path)


def test_cli_query_matches_in_process_answer(builds, capsys):
    cli_path, _, artifacts = builds
    engine = ServeEngine(artifacts.dataset)
    head = artifacts.dataset.head_names
    bodies = [
        {"family": "point", "commune": 3, "service": head[0], "hour": 20},
        {"family": "topk", "commune": 7, "k": 4, "direction": "ul"},
        {"family": "range", "service": head[1], "hour_start": 8, "hour_end": 30},
        {"family": "similarity", "kind": "service", "a": head[0], "b": head[2]},
    ]
    capsys.readouterr()
    for body in bodies:
        text = json.dumps(body)
        assert main_serve(["query", str(cli_path), text]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == engine.query_encoded(parse_query(text)) + "\n"


def test_cli_scorecard_matches_in_process_and_baseline(tmp_path):
    baseline = load_scorecard(str(BASELINE))
    seed = baseline["meta"]["seed"]
    n_communes = baseline["meta"]["n_communes"]
    out = tmp_path / "scorecard.json"
    assert main_scorecard(
        [
            "run",
            "--seed", str(seed),
            "--communes", str(n_communes),
            "--out", str(out),
            "--quiet",
        ]
    ) == EXIT_OK
    written = out.read_text(encoding="utf-8")
    assert written == render_scorecard_json(
        run_scorecard(seed=seed, n_communes=n_communes)
    )

    # Every analysis kernel (fig2-fig11) must still read the baseline's
    # values, so a drift in any of them fails here.  The text.* findings
    # are left out: they run the session chain, whose draws were re-keyed
    # after the baseline was pinned, and the baseline stays fixed so that
    # multi-seed grading can be compared against it.
    findings = json.loads(written)["findings"]
    analysis = sorted(name for name in baseline["findings"] if not name.startswith("text."))
    assert len(analysis) == 22
    for name in analysis:
        assert findings[name]["value"] == pytest.approx(
            baseline["findings"][name]["value"], rel=1e-9, abs=0.0
        ), name
