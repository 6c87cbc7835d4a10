"""One test matrix for the shared CLI exit-code contract.

Every command-line tool in the repo follows :mod:`repro._exit`:
``0`` ok, ``1`` findings / regression / degraded result, ``2`` usage
or unreadable input, ``3`` internal failure.  This file pins both
directions of that contract:

* statically — ``CLI_EXIT_MATRIX`` declares all four codes for every
  CLI module (this is also the fixture the RPL205 lint rule reads);
* behaviorally — each CLI is driven to as many of its declared codes
  as is cheap in a unit test (internal failures are provoked by
  monkeypatching a collaborator to raise).
"""

import json
import re
from pathlib import Path

import pytest

from repro._exit import (
    CLI_EXIT_MATRIX,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    EXIT_MEANINGS,
    EXIT_OK,
    EXIT_USAGE,
)
from repro.dataset.cli import main as main_dataset
from repro.experiments.cli import main as main_experiments
from repro.fidelity.cli import main as main_scorecard
from repro.lint.cli import main as main_lint
from repro.obs.cli import main as main_obs
from repro.obs.runtime import SCHEMA as RUNTIME_SCHEMA
from repro.serve.cli import main as main_serve

ALL_CODES = (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE, EXIT_INTERNAL)

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


class TestStaticContract:
    def test_constants_are_the_documented_values(self):
        assert ALL_CODES == (0, 1, 2, 3)
        assert sorted(EXIT_MEANINGS) == [0, 1, 2, 3]

    def test_every_cli_declares_all_four_codes(self):
        assert sorted(CLI_EXIT_MATRIX) == [
            "repro.dataset.cli",
            "repro.experiments.cli",
            "repro.fidelity.cli",
            "repro.lint.cli",
            "repro.obs.cli",
            "repro.serve.cli",
        ]
        for module, codes in CLI_EXIT_MATRIX.items():
            assert tuple(codes) == ALL_CODES, module

    def test_matrix_modules_are_importable(self):
        import importlib

        for module in CLI_EXIT_MATRIX:
            assert hasattr(importlib.import_module(module), "main")

    def test_matrix_matches_console_scripts(self):
        # A regex, not tomllib: Python 3.9 ships no TOML parser.
        text = PYPROJECT.read_text(encoding="utf-8")
        section = re.search(
            r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
        )
        assert section is not None
        modules = re.findall(
            r'^[\w-]+\s*=\s*"([\w.]+):\w+"', section.group(1), re.M
        )
        assert sorted(modules) == sorted(CLI_EXIT_MATRIX)


class TestLintCli:
    def _repo(self, tmp_path, source="x = 1\n"):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(source)
        return tmp_path

    def test_0_clean_tree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(self._repo(tmp_path))
        assert main_lint(["src", "--no-program"]) == EXIT_OK

    def test_1_findings(self, tmp_path, capsys, monkeypatch):
        root = self._repo(
            tmp_path, "import numpy as np\nr = np.random.default_rng(3)\n"
        )
        monkeypatch.chdir(root)
        assert main_lint(["src", "--no-program"]) == EXIT_FINDINGS

    def test_2_missing_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main_lint(["no-such-dir"]) == EXIT_USAGE

    def test_3_internal_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(self._repo(tmp_path))
        import repro.lint.cli as lint_cli

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(lint_cli, "_lint_files", boom)
        assert main_lint(["src"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestObsCli:
    def _dump(self, tmp_path, name, sessions):
        payload = {
            "schema": RUNTIME_SCHEMA,
            "counters": {"generator.sessions": sessions},
            "gauges": {},
            "spans": {
                "name": "total",
                "count": 1,
                "elapsed_s": 1.0,
                "peak_rss_bytes": 0,
                "children": [],
            },
            "meta": {},
        }
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_0_list_metrics(self, capsys):
        assert main_obs(["list-metrics"]) == EXIT_OK
        assert "generator.sessions" in capsys.readouterr().out

    def test_0_diff_identical(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json", 5)
        b = self._dump(tmp_path, "b.json", 5)
        assert main_obs(["diff", a, b]) == EXIT_OK

    def test_1_diff_differs(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json", 5)
        b = self._dump(tmp_path, "b.json", 7)
        assert main_obs(["diff", a, b]) == EXIT_FINDINGS
        assert "generator.sessions" in capsys.readouterr().out

    def test_2_unreadable_dump(self, tmp_path, capsys):
        assert main_obs(["show", str(tmp_path / "nope.json")]) == EXIT_USAGE
        assert "repro-obs" in capsys.readouterr().err

    def test_3_internal_failure(self, tmp_path, capsys, monkeypatch):
        import repro.obs.cli as obs_cli

        def boom(path):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(obs_cli.obs_export, "load_dump", boom)
        assert main_obs(["show", "whatever.json"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestDatasetCli:
    def test_0_build_and_info(self, tmp_path, capsys):
        out = tmp_path / "tiny.npz"
        assert main_dataset(
            ["build", "--communes", "64", "--seed", "3", "--out", str(out)]
        ) == EXIT_OK
        assert main_dataset(["info", str(out)]) == EXIT_OK
        capsys.readouterr()

    def test_2_unreadable_input(self, tmp_path, capsys):
        assert main_dataset(["info", str(tmp_path / "no.npz")]) == EXIT_USAGE
        assert "repro-dataset" in capsys.readouterr().err

    def test_3_internal_failure(self, tmp_path, capsys, monkeypatch):
        import repro.dataset.cli as ds_cli

        def boom(path):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(
            ds_cli.MobileTrafficDataset, "load", staticmethod(boom)
        )
        assert main_dataset(["info", "whatever.npz"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    # exit 1 (degraded coverage) is exercised end-to-end by
    # tests/unit/dataset/test_cli.py::TestExitCodeMatrix.


class TestExperimentsCli:
    def test_0_list(self, capsys):
        assert main_experiments(["--list"]) == EXIT_OK
        assert "fig" in capsys.readouterr().out

    def test_2_unknown_experiment(self, capsys):
        assert main_experiments(["fig999"]) == EXIT_USAGE
        assert "unknown experiments" in capsys.readouterr().err

    def test_3_internal_failure(self, capsys, monkeypatch):
        import repro.experiments.cli as exp_cli

        def boom():
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(exp_cli, "experiment_ids", boom)
        assert main_experiments(["--list"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    # exit 1 (a figure check failed) requires a full experiment run;
    # the declaration is pinned by TestStaticContract and RPL205.


class TestScorecardCli:
    def test_0_list_findings(self, capsys):
        assert main_scorecard(["list-findings"]) == EXIT_OK
        assert "accept" in capsys.readouterr().out

    def test_1_regressed_diff(self, capsys, monkeypatch):
        import repro.fidelity.cli as fid_cli

        class _Result:
            gate_ok = False

            def render(self):
                return "verdict worsened"

        monkeypatch.setattr(fid_cli.fid, "load_scorecard", lambda path: {})
        monkeypatch.setattr(
            fid_cli.fid, "diff_scorecards", lambda a, b: _Result()
        )
        assert main_scorecard(["diff", "base.json", "cur.json"]) == EXIT_FINDINGS
        assert "worsened" in capsys.readouterr().out

    def test_2_unreadable_scorecard(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main_scorecard(["show", missing]) == EXIT_USAGE
        assert "repro-scorecard" in capsys.readouterr().err

    def test_3_internal_failure(self, capsys, monkeypatch):
        import repro.fidelity.cli as fid_cli

        def boom(path):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(fid_cli.fid, "load_scorecard", boom)
        assert main_scorecard(["show", "whatever.json"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err


class TestServeCli:
    @pytest.fixture(scope="class")
    def dataset_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve") / "tiny.npz"
        assert main_dataset(
            ["build", "--communes", "64", "--seed", "3", "--out", str(out)]
        ) == EXIT_OK
        return str(out)

    def test_0_topk(self, dataset_path, capsys):
        assert main_serve(
            ["topk", dataset_path, "--commune", "2", "--k", "3"]
        ) == EXIT_OK
        assert "ranking" in capsys.readouterr().out

    def test_1_p99_bound_exceeded(self, dataset_path, capsys):
        # A 0 ms bound is unreachable: any executed schedule fails it.
        assert main_serve(
            [
                "load",
                dataset_path,
                "--duration", "2",
                "--window", "1",
                "--users", "50",
                "--rpm", "60",
                "--p99-bound-ms", "0",
            ]
        ) == EXIT_FINDINGS
        assert "exceeds bound" in capsys.readouterr().err

    def test_2_missing_dataset(self, tmp_path, capsys):
        missing = str(tmp_path / "no.npz")
        assert main_serve(
            ["topk", missing, "--commune", "0"]
        ) == EXIT_USAGE
        assert "repro-serve" in capsys.readouterr().err

    def test_3_corrupt_dataset(self, dataset_path, tmp_path, capsys):
        # A torn archive is an integrity failure of our own artifact,
        # not a usage error: the CLI reports it and exits internal —
        # never a traceback (docs/serving.md, "Exit codes").
        blob = Path(dataset_path).read_bytes()
        torn = tmp_path / "torn.npz"
        torn.write_bytes(blob[: len(blob) // 2])
        assert main_serve(
            ["topk", str(torn), "--commune", "0"]
        ) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "corrupt dataset" in err
        assert "Traceback" not in err

    def test_3_internal_failure(self, dataset_path, capsys, monkeypatch):
        import repro.serve.cli as serve_cli

        def boom(path, cache_capacity=0):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(
            serve_cli.ServeEngine, "open", staticmethod(boom)
        )
        assert main_serve(
            ["topk", dataset_path, "--commune", "0"]
        ) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err
