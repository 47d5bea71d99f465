"""The repository benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload paper --seed 2007 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

``--trace 0`` reports the end-to-end metrics: workload processes are
started one after another (a closed loop with one caller) until
``--seconds`` is used up, then ``setup_s`` probes and the ``fig2_err``
panel run in their own processes.  ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics.  Either
way the outputs are checked (digests, the paper's shape) and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  NOTES.md explains every
workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("sim_s_per_host_s", "ratio", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rep_ok_ratio", "ratio", "higher", 0.05),
    ("sim_ok_ratio", "ratio", "higher", 0.15),
    ("fig2_err", "ratio", "lower", 0.24),
)
#: Reported with the end-to-end metrics but not gated: the simulated
#: work behind it swings with the seed (NOTES.md).
REPORTED = (
    ("wall_s", "s"),
    ("failed_ratio", "ratio"),
    ("cpu_s", "s"),
    ("calibration_loop_s", "s"),
)
UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
UNITS.update(REPORTED)
UNITS.update({name: unit for name, unit, _better in layers.PER_LAYER})

#: Setup samples per run: workload processes plus setup-only probes.
SETUP_SAMPLES = 3
#: A measured process that runs longer than this fails the run.
CHILD_TIMEOUT_S = 170
#: Where results, manifests and span samples are written.
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a study failure)."""


def _spawn(mode: str, workload: str, seed: int, *extra: str) -> tuple:
    env = {k: v for k, v in os.environ.items() if k not in harness.STUDY_ENV}
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", workload,
         "--seed", str(seed), *extra, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return proc, spawned_at, f"{mode} process for {workload}"


def _collect(started: tuple) -> dict:
    proc, spawned_at, what = started
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} ran over {CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{what} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - spawned_at
    return result


def _child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    return _collect(_spawn(mode, workload, seed, *extra))


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _ok_ratio(ok: Dict[str, int], attempted: Dict[str, int]) -> float:
    total = sum(attempted.values())
    if total == 0:
        raise BenchError("the workload attempted no simulated operation")
    return sum(ok.values()) / total


def measure_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop of workload processes, then setup and accuracy probes."""
    started = time.monotonic()
    runs = [_child("run", workload, seed)]  # the first also runs untimed studies
    while True:
        typical = statistics.median(r["process_s"] for r in runs)
        if time.monotonic() - started + typical > seconds:
            break
        runs.append(_child("run", workload, seed, "--skip-untimed"))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child("setup", workload, seed)["setup_s"])
    accuracy = _child("accuracy", workload, seed)

    first = runs[0]
    timed_names = set(runs[-1]["digests"])
    problems = list(first["checks_failed"])
    reference = {name: first["digests"][name] for name in timed_names}
    for i, r in enumerate(runs[1:], start=1):
        if r["digests"] != reference:
            problems.append(f"run {i} digests {r['digests']} differ from run 0 {reference}")
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "calibration_loop_s": [r["calibration_loop_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "sim_s_per_host_s": [r["sim_s"] / r["ref_s"] for r in runs],
        "failed_ratio": [first["reps_failed"] / first["reps_requested"]],
        "rep_ok_ratio": [1.0 - first["reps_failed"] / first["reps_requested"]],
        "sim_ok_ratio": [_ok_ratio(first["ops_ok"], first["ops_attempted"])],
        "fig2_err": [accuracy["fig2_err"]],
    }
    return {
        "samples": samples,
        "problems": problems,
        "processes": len(setups) + 1,  # every run gives a set-up sample
        "first_run": first,
    }


def measure_layers(workload: str, seed: int) -> dict:
    """One untraced and one traced process of the whole workload."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    # Side by side, one CPU each: the traced run is the long one.
    started = [
        _spawn("run", workload, seed, "--single-seed"),
        _spawn("trace", workload, seed, "--single-seed", "--out", str(spans_path)),
    ]
    try:
        plain, traced = (_collect(s) for s in started)
    finally:
        for proc, _at, _what in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    # The paper's shape is checked on the end-to-end runs' seed panel;
    # here only the two runs' outputs are compared.
    problems = []
    if plain["digests"] != traced["digests"]:
        problems.append(
            f"traced digests {traced['digests']} differ from untraced {plain['digests']}"
        )
    metrics = dict(traced["layers"])
    metrics["obs.trace_overhead"] = traced["traced_timed_s"] / plain["wall_s"]
    return {
        "samples": {name: [value] for name, value in metrics.items()},
        "problems": problems,
        "processes": 2,
        "first_run": plain,
        "layer_self_s": traced["layer_self_s"],
        "spans_file": spans_path.name,
    }


def manifest(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(),
    }


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        measured = measure_layers(workload, seed)
        names = [name for name, _unit, _better in layers.PER_LAYER]
    else:
        measured = measure_end_to_end(workload, seed, seconds)
        names = [name for name, *_ in END_TO_END]
    stats = {name: quartiles(values) for name, values in measured["samples"].items()}
    first = measured["first_run"]
    record = {
        "manifest": manifest(workload, seed, seconds, trace),
        "stats": stats,
        "samples": measured["samples"],
        "problems": measured["problems"],
        "raised": first["raised"],
        "cut_at_horizon": first["cut"],
        "reps": {"requested": first["reps_requested"], "failed": first["reps_failed"]},
        "ops": {"attempted": first["ops_attempted"], "ok": first["ops_ok"]},
        "details": first["details"],
    }
    for key in ("layer_self_s", "spans_file"):
        if key in measured:
            record[key] = measured[key]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    result = {
        "correct": not measured["problems"],
        "attempted": measured["processes"],
        "failed": 0,
        "metrics": {
            name: {"value": stats[name]["median"], "unit": UNITS[name]} for name in names
        },
    }
    return {"record": record, "result": result}


def render(record: dict) -> str:
    m = record["manifest"]
    lines = [
        f"== {m['workload']} (seed {m['seed']}, trace {m['trace']}, "
        f"{m['python']} on {m['cpu_count']} CPUs, rev {m['git_rev'][:12]})",
        f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}",
    ]
    for name, s in record["stats"].items():
        lines.append(
            f"{name:34s} {UNITS[name]:6s} {s['median']:12.6g} {s['q1']:12.6g} "
            f"{s['q3']:12.6g} {s['n']:3d}"
        )
    reps = record["reps"]
    lines.append(f"study repetitions: {reps['failed']} of {reps['requested']} raised")
    for study, message in record["raised"].items():
        lines.append(f"  {study} raised {message}")
    for study, message in record["cut_at_horizon"].items():
        lines.append(f"  {study} {message} (the workload's horizon)")
    for name, value in record["details"].items():
        lines.append(f"{name}: {value:.6g}")
    for problem in record["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            done = run_workload(name, args.seed, args.seconds, args.trace)
            print(render(done["record"]), file=sys.stderr)
            print(json.dumps({"manifest": done["record"]["manifest"]}))
            results[name] = done["result"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
