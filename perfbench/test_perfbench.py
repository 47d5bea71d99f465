"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q -p no:cacheprovider``.

The end-to-end tests run the real command on ``paper`` with a 1-second
budget (about half a minute in all); the check tests feed canned
process results to the runner and need no simulation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_benchmark_json_matches_the_metric_specs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_end_to_end_run_emits_every_metric_with_its_unit():
    result = _result(_bench("--workload", "paper", "--seconds", "1", "--trace", "0"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _better, _bound in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_with_its_unit():
    result = _result(_bench("--workload", "paper", "--seconds", "1", "--trace", "1"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _better in layers.PER_LAYER
    }
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["kernel.events"] > 0 and metrics["transport.sends"] > 0
    assert metrics["obs.accounted_ratio"] == pytest.approx(1.0, abs=0.01)
    assert metrics["obs.trace_overhead"] > 1.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- checks, fed canned process results ------------------------------------------


def _fake_child(corrupt_call: int):
    calls = []

    def child(mode, workload, seed, *extra):
        calls.append(mode)
        digests = {"fig2": "aaaa", "fig3": "bbbb"}
        if len(calls) == corrupt_call:
            digests["fig3"] = "corrupted"
        return {
            "wall_s": 1.0, "cpu_s": 1.0, "ref_s": 1.0, "setup_s": 0.5, "calibration_loop_s": 0.01, "peak_rss_mb": 50.0, "sim_s": 100.0,
            "reps_requested": 10, "reps_failed": 0,
            "ops_attempted": {"transfer": 4}, "ops_ok": {"transfer": 4},
            "digests": digests, "checks_failed": [], "raised": {}, "cut": {}, "details": {},
            "process_s": 0.0, "fig2_err": 0.1, "traced_timed_s": 2.0,
            "layers": {name: 1.0 for name, _u, _b in layers.PER_LAYER if name != "obs.trace_overhead"},
            "layer_self_s": {},
        }

    return child


def _fake_processes(monkeypatch, child) -> None:
    """Route both the serial and the side-by-side paths to ``child``."""
    monkeypatch.setattr(run, "_child", child)
    monkeypatch.setattr(run, "_spawn", lambda *args: (SimpleNamespace(poll=lambda: 0), 0.0, args))
    monkeypatch.setattr(run, "_collect", lambda started: child(*started[2]))


def test_identical_digests_pass(monkeypatch, tmp_path):
    _fake_processes(monkeypatch, _fake_child(corrupt_call=0))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.run_workload("paper", 7, 0.0, 0)["result"]["correct"] is True
    assert run.run_workload("paper", 7, 0.0, 1)["result"]["correct"] is True


def test_corrupted_digest_between_runs_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "_child", _fake_child(corrupt_call=2))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # Budget for exactly two workload processes.
    monkeypatch.setattr(run.time, "monotonic", iter([0.0, 0.0, 0.0, 100.0]).__next__)
    done = run.run_workload("paper", 7, 1.0, 0)
    assert done["result"]["correct"] is False
    assert "differ" in done["record"]["problems"][0]


def test_corrupted_digest_between_traced_and_untraced_fails(monkeypatch, tmp_path):
    _fake_processes(monkeypatch, _fake_child(corrupt_call=2))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    done = run.run_workload("paper", 7, 1.0, 1)
    assert done["result"]["correct"] is False
    assert "traced digests" in done["record"]["problems"][0]


def test_paper_shape_failures_name_the_broken_claim():
    def fig2(sc1: float):
        return SimpleNamespace(summaries={"SC1": SimpleNamespace(mean=sc1), "SC7": SimpleNamespace(mean=27.0)})

    def fig6(economic: float):
        costs = {"economic": economic, "same_priority": 0.2, "quick_peer": 0.4}
        return SimpleNamespace(cost=lambda model, parts: costs[model])

    fig5 = SimpleNamespace(grand_mean_minutes=lambda n: {1: 5.0, 4: 2.0, 16: 3.0}[n])
    failures = harness.paper_shape_failures(
        {"fig2@3": fig2(30.0), "fig5@3": fig5, "fig6@3": fig6(0.5)}
    )
    assert len(failures) == 3
    assert "SC1" in failures[0] and "fig5" in failures[1] and "quick_peer" in failures[2]
    # One seed's inversion is outweighed by the rest of the panel.
    panel = {"fig2@3": fig2(30.0), "fig2@4": fig2(1.0), "fig6@3": fig6(0.5), "fig6@4": fig6(0.1)}
    assert harness.paper_shape_failures(panel) == []


def test_result_digest_is_stable_and_sensitive():
    from repro.analysis.stats import summarize
    from repro.experiments.fig2_petition import Fig2Result

    a = Fig2Result(summaries={"SC1": summarize([1.0, 2.0])}, targets={"SC1": 1.5})
    b = Fig2Result(summaries={"SC1": summarize([1.0, 2.0])}, targets={"SC1": 1.5})
    c = Fig2Result(summaries={"SC1": summarize([1.0, 2.5])}, targets={"SC1": 1.5})
    assert harness.result_digest(a) == harness.result_digest(b) != harness.result_digest(c)


def test_layer_of_maps_modules_to_layers():
    assert layers.layer_of("repro.simnet.kernel") == "kernel"
    assert layers.layer_of("repro.simnet.transport", "Host.send") == "transport"
    assert layers.layer_of("repro.simnet.transport", "FlowScheduler._on_timer") == "flow"
    assert layers.layer_of("repro.overlay.broker") == "broker"
    assert layers.layer_of("repro.overlay.client") == "overlay"
    assert layers.layer_of("repro.gossip.swim") == "gossip"
    assert layers.layer_of("numpy.random") == "other"
