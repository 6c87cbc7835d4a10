"""Wall-clock benchmark of the build, serve and scorecard paths.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH] [--smoke]
    python3 perfbench/run.py --sets 2 [--workload NAME] [--seconds S]

Each trial is a fresh process (``workloads.py``) that calls the
program's public functions and reports its timings and checks; this
process only orchestrates and never imports the program.  Trials run
until ``--seconds`` of measuring is spent (at least two per run) and
each end-to-end metric is the median over them.  ``--trace 1`` swaps
every second trial for a traced one and reports the per-layer split
instead.  Metric names, units and bounds come from ``BENCHMARK.json``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every
correctness check passed; 1 when one failed; 2 when the program's
sources are missing.

``--sets K`` is the calibration mode: it runs this script for every
workload K×RUNS_PER_SET times with distinct seeds, alternating the
sets, and prints each end-to-end metric's per-set medians, pooled
quartiles and the spread the bounds in ``BENCHMARK.json`` are checked
against.  It exits 1 when a run fails its checks or a later set is
worse than the first by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import median, quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Per-layer metrics with this suffix are a layer's share of traced wall.
SHARE_SUFFIX = "_pct"
#: Below this many trials a run keeps measuring past ``--seconds``.
MIN_TRIALS = 2
MAX_TRIALS = 40
TRIAL_TIMEOUT_S = 150.0
#: Calibration runs per set: with two sets, the ten seeds per workload
#: the bounds are checked over.
RUNS_PER_SET = 5
#: Calibration notes a metric whose set medians differ by more.
SET_DIFFERENCE_NOTE = 0.10


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# trials
# ----------------------------------------------------------------------
def run_child(spec: Dict[str, Any]) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one ``workloads.py`` process; ``(result or None, error)``.

    The child leads its own process group, so a timeout also stops the
    shard workers it forked.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # A fixed string-hash layout keeps dict and set timings comparable.
    env["PYTHONHASHSEED"] = "0"
    spec = dict(spec, launch=time.monotonic())
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None, f"timed out after {TRIAL_TIMEOUT_S:.0f} s"
    if child.returncode != 0:
        return None, f"exit {child.returncode}: " + err.strip()[-2000:]
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line: " + out.strip()[-500:]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    spans_prefix: Optional[str] = None,
) -> Dict[str, Any]:
    """Prepare inputs, then run trials for ``seconds``; raw trial results."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    base = {"workload": workload, "seed": seed, "workdir": workdir, "smoke": smoke}
    errors: List[str] = []
    trials: List[Dict[str, Any]] = []
    try:
        prepared, error = run_child(dict(base, role="prepare"))
        if prepared is None:
            return {"prepared": None, "trials": [], "errors": [f"prepare: {error}"]}
        start = time.monotonic()
        durations: List[float] = []
        while len(trials) < MAX_TRIALS:
            spec = dict(base, role="trial", prepared=prepared)
            spec["traced"] = traced and len(trials) % 2 == 1
            if spec["traced"] and spans_prefix:
                spec["spans_path"] = f"{spans_prefix}.{len(trials)}.jsonl"
            began = time.monotonic()
            result, error = run_child(spec)
            durations.append(time.monotonic() - began)
            if result is None:
                errors.append(f"trial {len(trials)}: {error}")
                result = {"crashed": True}
            result["traced"] = spec["traced"]
            trials.append(result)
            elapsed = time.monotonic() - start
            if len(trials) >= MIN_TRIALS and elapsed + median(durations) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"prepared": prepared, "trials": trials, "errors": errors}


def judge(raw: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every trial of a run.

    A trial's digest must equal the prepared reference output's, or the
    first trial's where there is none: the same inputs must give the
    same bytes, traced or not.
    """
    problems = list(raw["errors"])
    attempted = failed = 0
    reference = (raw["prepared"] or {}).get("digest")
    for index, trial in enumerate(raw["trials"]):
        if trial.get("crashed"):
            attempted += 1
            failed += 1
            continue
        attempted += trial["attempted"]
        problems += [f"trial {index}: {p}" for p in trial.get("problems", [])]
        digest = trial.get("digest")
        if reference is None:
            reference = digest
        if digest != reference:
            problems.append(f"trial {index}: output digest {digest[:12]} != {reference[:12]}")
            failed += max(trial["failed"], 1)
        else:
            failed += trial["failed"]
    if not raw["trials"]:
        attempted, failed = 1, 1
    return attempted, failed, problems


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(trials: List[Dict[str, Any]], declared: List[Dict[str, Any]]):
    ok = [t for t in trials if not t.get("crashed") and not t["traced"]]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        values = [t["e2e"][name] for t in ok]
        if values:
            metrics[name] = dict(summarize(values), unit=metric["unit"])
    return metrics


def per_layer(trials: List[Dict[str, Any]], declared: List[Dict[str, Any]]):
    """Layer shares of traced wall, trace overhead, and layer counts.

    Shares pool every traced trial: a layer's self time summed over
    trials, divided by the traced wall summed over trials.
    """
    traced = [t for t in trials if not t.get("crashed") and t["traced"]]
    plain = [t for t in trials if not t.get("crashed") and not t["traced"]]
    if not traced or not plain:
        return {}
    root_total = sum(t["root_s"] for t in traced)
    self_total: Dict[str, float] = defaultdict(float)
    for trial in traced:
        for layer, seconds in trial["layers"].items():
            self_total[layer] += seconds
    names = {m["name"] for m in declared}
    undeclared = {f"{layer}{SHARE_SUFFIX}" for layer in self_total} - names
    if undeclared:
        raise ValueError(f"trace rows not declared in BENCHMARK.json: {sorted(undeclared)}")
    roots = [t["root_s"] for t in traced]
    sections = [t["section_s"] for t in plain]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name.endswith(SHARE_SUFFIX):
            layer = name[: -len(SHARE_SUFFIX)]
            summary = {"value": 100.0 * self_total.get(layer, 0.0) / root_total, "n": len(traced)}
        elif name == "trace.root_s":
            summary = summarize(roots)
        elif name == "trace.overhead_fraction":
            summary = {"value": median(roots) / median(sections) - 1.0, "n": len(traced)}
        else:
            summary = summarize([float(t["counts"].get(name, 0)) for t in traced])
        metrics[name] = dict(summary, unit=metric["unit"])
    return metrics


def printed_only(trials: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    values: Dict[str, List[float]] = defaultdict(list)
    for trial in trials:
        for name, value in trial.get("printed", {}).items():
            values[name].append(value)
    return {name: summarize(v) for name, v in sorted(values.items())}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    contract: Dict[str, Any],
    spans_prefix: Optional[str] = None,
) -> Dict[str, Any]:
    began = time.monotonic()
    raw = measure(workload, seed, seconds, traced, smoke, spans_prefix)
    attempted, failed, problems = judge(raw)
    declared = contract["per_layer" if traced else "end_to_end"]
    try:
        metrics = (per_layer if traced else end_to_end)(raw["trials"], declared)
    except ValueError as exc:
        metrics, problems = {}, problems + [str(exc)]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = failed == 0 and not problems
    prepared = raw["prepared"] or {}
    return {
        "workload": workload,
        "seed": seed,
        "program_seed": prepared.get("seed"),
        "skipped_seeds": prepared.get("skipped", []),
        "trace": int(traced),
        "smoke": smoke,
        "run_s": time.monotonic() - began,
        "trials": len(raw["trials"]),
        "checks_passed": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "printed_only": printed_only(raw["trials"]),
        "raw_trials": raw["trials"],
    }


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_record(record: Dict[str, Any]) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"{record['trials']} trials in fresh processes, {record['run_s']:.1f} s"
    )
    idle = []
    for name, m in record["metrics"].items():
        if name.endswith(SHARE_SUFFIX) and m["value"] == 0.0:
            idle.append(name)
            continue
        quart = f"  q1 {fmt(m['q1'])}  q3 {fmt(m['q3'])}" if "q1" in m else ""
        print(f"  {name:<32} {fmt(m['value']):>12} {m['unit']:<8} n={m['n']}{quart}")
    if idle:
        print(f"  layers idle on this workload (0 %): {', '.join(idle)}")
    for name, m in record["printed_only"].items():
        print(
            f"  (printed only) {name:<32} {fmt(m['value']):>12}  "
            f"n={m['n']}  q1 {fmt(m['q1'])}  q3 {fmt(m['q3'])}"
        )
    for skipped in record["skipped_seeds"]:
        print(f"  skipped {skipped}; ran seed {record['program_seed']}")
    verdict = "passed" if record["checks_passed"] else "FAILED"
    print(f"  checks {verdict}: {record['failed']} failed of {record['attempted']} attempted")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def result_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON line; several workloads prefix names ``workload/``."""
    prefix = len(records) > 1
    return {
        "correct": all(r["checks_passed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {
                "value": m["value"],
                "unit": m["unit"],
            }
            for r in records
            for name, m in r["metrics"].items()
        },
    }


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(
    workloads: Sequence[str], sets: int, seconds: float, contract
) -> Tuple[Dict[str, Any], bool]:
    """Alternate ``sets`` sets of RUNS_PER_SET runs per workload; compare sets.

    Every end-to-end metric stays gated even when its sets differ by
    more than a tenth: BENCHMARK.json declares a metric for all
    workloads at once, and each must be reported on every one, so one
    workload's metric cannot be made printed-only.  Such a metric is
    noted; its bound is what gates it.
    """
    values: Dict[Tuple[str, str], List[List[float]]] = defaultdict(
        lambda: [[] for _ in range(sets)]
    )
    ok = True
    for r in range(RUNS_PER_SET):
        for s in range(sets):
            for workload in workloads:
                seed = 1 + r * sets + s
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                began = time.monotonic()
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                took = time.monotonic() - began
                try:
                    line = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    line = {"correct": False, "metrics": {}}
                ok = ok and done.returncode == 0 and line["correct"]
                print(
                    f"set {s + 1} run {r + 1} {workload:<14} seed {seed:<3} "
                    f"exit {done.returncode} {took:5.1f} s  "
                    + "  ".join(f"{k}={fmt(v['value'])}" for k, v in line["metrics"].items()),
                    flush=True,
                )
                for name, metric in line["metrics"].items():
                    values[(workload, name)][s].append(metric["value"])
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    report: Dict[str, Any] = {}
    print(f"\n{'workload':<14} {'metric':<18} " + " ".join(
        f"{'set ' + str(s + 1):>11}" for s in range(sets)
    ) + f" {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6} {'sets':>7}  verdict")
    for (workload, name), per_set in sorted(values.items()):
        pooled = [v for chunk in per_set for v in chunk]
        medians = [median(chunk) for chunk in per_set]
        q1, _, q3 = quartiles(pooled)
        better = bounds[name]["better"]
        worse = [
            (m / medians[0] - 1.0) if better == "lower" else (1.0 - m / medians[0])
            for m in medians[1:]
        ]
        difference = max(abs(m / medians[0] - 1.0) for m in medians)
        bound = bounds[name]["bound"]
        regressed = any(w > bound for w in worse)
        verdict = "FAIL: later set worse by more than the bound" if regressed else "ok"
        if difference > SET_DIFFERENCE_NOTE:
            verdict += "; note: sets differ by more than a tenth, gated by its bound"
        report[f"{workload}/{name}"] = {
            "set_medians": medians,
            "q1": q1,
            "q3": q3,
            "spread": spread(pooled),
            "set_difference": difference,
            "bound": bound,
            "verdict": verdict,
        }
        ok = ok and not regressed
        print(
            f"{workload:<14} {name:<18} "
            + " ".join(f"{fmt(m):>11}" for m in medians)
            + f" {fmt(q1):>11} {fmt(q3):>11} {spread(pooled):7.3f} {bound:6.2f}"
            f" {difference:7.3f}  {verdict}"
        )
    return report, ok


def parse_args(argv: Optional[Sequence[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record(s) as JSON here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--sets", type=int, default=0, help="calibration: number of sets")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    args = parse_args(argv, names)
    seconds = args.seconds or contract["run_seconds"]
    workloads = [args.workload] if args.workload else names
    if args.sets:
        report, ok = calibrate(workloads, args.sets, seconds, contract)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        return 0 if ok else 1
    out = Path(args.out).resolve() if args.out else None
    records = []
    for workload in workloads:
        record = run_workload(
            workload, args.seed, seconds, bool(args.trace), args.smoke, contract,
            spans_prefix=f"{out}.{workload}.spans" if out else None,
        )
        print_record(record)
        records.append(record)
    line = result_line(records)
    if out:
        out.write_text(json.dumps(records, indent=2) + "\n")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
