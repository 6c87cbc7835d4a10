"""End-to-end: the benchmark command at tiny sizes, as a user runs it."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_declared_metric_and_passes_checks(trace, section):
    done = run_bench("--smoke", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    for workload in CONTRACT["workloads"]:
        for metric in CONTRACT[section]:
            name = f"{workload['name']}/{metric['name']}"
            assert line["metrics"][name]["unit"] == metric["unit"], name
            assert isinstance(line["metrics"][name]["value"], float), name
    if section == "end_to_end":
        # Every metric is also printed by name with its unit.
        for metric in CONTRACT[section]:
            pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s"
            assert re.search(pattern, done.stdout, re.M), metric["name"]


def test_single_workload_line_uses_bare_metric_names():
    done = run_bench(
        "--smoke", "--seconds", "1", "--workload", "build_stream", "--seed", "4"
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line["metrics"]) == sorted(m["name"] for m in CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "build_stream", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
