"""One measured process: run a workload once and print one JSON line.

``run.py`` starts a fresh interpreter on this file for every sample so
that ``setup_s`` and ``peak_rss_mb`` belong to one workload alone.
Modes:

* ``run``      — untraced, no metrics registry (the CLI default);
* ``trace``    — spans installed and a ``MetricsRegistry`` active;
* ``setup``    — stop at the first kernel event, report ``setup_s``;
* ``accuracy`` — the Figure 2 panel behind ``fig2_err``.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is system-wide), so ``setup_s``
covers interpreter start, ``repro`` imports and the first ``Session``
build.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from calibrate import Calibrator  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _setup_only(spawned_at: float, workload: str, seed: int) -> None:
    def report() -> None:
        _emit({"setup_s": time.monotonic() - spawned_at})
        os._exit(0)

    harness.on_first_event(report)
    for study in harness.studies(workload, seed):
        study.call()
    raise SystemExit("workload finished without a kernel event")


def _measure(
    spawned_at: float, workload: str, seed: int, traced: bool, untimed: bool, panel: bool
) -> dict:
    # Untraced runs sample host speed from the first kernel event to the
    # end of the timed studies; traced runs report raw times only.
    built = time.monotonic()
    calibrator = None if traced else Calibrator()
    spawned_at += time.monotonic() - built  # building it is not set-up
    first_event = []

    def at_first_event() -> None:
        first_event.append(time.monotonic())
        if calibrator is not None:
            calibrator.sample_now(3)
            calibrator.start()

    harness.on_first_event(at_first_event)
    acct = harness.install_accounting()
    tracer = registry = None
    if traced:
        import layers
        from repro.obs import MetricsRegistry, install_registry

        tracer = layers.install(harness.GENERATOR_ORIGIN)
        registry = MetricsRegistry()
        install_registry(registry)

    studies = harness.studies(workload, seed, panel)
    if not untimed:
        studies = [s for s in studies if s.timed]
    if tracer is not None:
        studies = [s._replace(call=layers.timed_study(tracer, s.call)) for s in studies]
    timed = {}

    def timed_section_done() -> None:
        if calibrator is not None:
            calibrator.stop()
        timed.update(
            sim_s=acct.sim_s, runaway_s=acct.runaway_s, peak_rss_mb=_peak_rss_mb()
        )

    started = time.perf_counter()
    outcome = harness.run_studies(studies, acct, timed_section_done)
    total_s = time.perf_counter() - started

    results = outcome["results"]
    calibration_s = calibrator.spent_s if calibrator is not None else 0.0
    out = {
        "wall_s": outcome["wall_s"] - calibration_s,
        "cpu_s": outcome["cpu_s"] - calibration_s,
        "total_s": total_s,
        "setup_s": first_event[0] - spawned_at,
        "peak_rss_mb": timed["peak_rss_mb"],
        "sim_s": timed["sim_s"],
        "reps_requested": acct.reps_requested,
        "reps_failed": acct.reps_failed,
        "ops_attempted": acct.ops_attempted,
        "ops_ok": acct.ops_ok,
        "digests": outcome["digests"],
        "raised": outcome["raised"],
        "cut": outcome["cut"],
        "checks_failed": harness.paper_shape_failures(results) if workload == "paper" else [],
        "details": {},
    }
    if calibrator is not None:
        # Runaway sessions count neither simulated nor host seconds.
        out["ref_s"] = calibrator.reference_s(out["wall_s"] - timed["runaway_s"])
        out["calibration_loop_s"] = statistics.median(calibrator.samples)
    if f"fig2@{seed}" in results:
        out["details"]["fig2_err_at_seed"] = harness.fig2_error(results[f"fig2@{seed}"])
    if f"fig5@{seed}" in results:
        out["details"]["fig5_err"] = harness.fig5_error(results[f"fig5@{seed}"])
    if tracer is not None:
        out["traced_timed_s"] = outcome["wall_s"]
        out["layers"] = layers.per_layer_metrics(tracer, registry, total_s, layers.span_cost_s())
        out["layer_self_s"] = tracer.layer_table()
        out["span_sample"] = tracer.sample
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("run", "trace", "setup", "accuracy"), required=True)
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--skip-untimed", action="store_true", help="run only timed studies")
    parser.add_argument("--single-seed", action="store_true", help="run --seed alone, not its panel")
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        _setup_only(args.spawned_at, args.workload, args.seed)
    if args.mode == "accuracy":
        payload = {"fig2_err": harness.fig2_panel_error(args.seed)}
    else:
        payload = _measure(
            args.spawned_at,
            args.workload,
            args.seed,
            traced=args.mode == "trace",
            untimed=not args.skip_untimed,
            panel=not args.single_seed,
        )
    if args.out:
        Path(args.out).write_text(json.dumps(payload))
        payload = {key: value for key, value in payload.items() if key != "span_sample"}
    _emit(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
