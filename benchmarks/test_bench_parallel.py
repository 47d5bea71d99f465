"""Wall-clock speed-up of the parallel resilience sweep.

The serial and parallel matrices are checked bit-identical in
``tests/perf/test_parallel.py``; this benchmark only times them.  The
>= 2x bound needs real cores, so it runs on hosts with >= 4 CPUs.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import ExperimentConfig, resilience
from repro.perf.parallel import available_cpus

from .conftest import emit

#: Speed-up the parallel matrix must reach over the serial one.
MIN_SPEEDUP = 2.0


def _timed(workers: int) -> float:
    config = ExperimentConfig(seed=2007, repetitions=2)
    started = time.perf_counter()  # simlint: disable=SIM001 -- measured wall-clock of the bench run, not a simulated quantity
    resilience.run(config, workers=workers)
    return time.perf_counter() - started  # simlint: disable=SIM001 -- measured wall-clock of the bench run, not a simulated quantity


@pytest.mark.skipif(available_cpus() < 4, reason="the speed-up bound needs >= 4 CPUs")
def test_parallel_resilience_speedup():
    workers = available_cpus()
    serial, parallel = _timed(1), _timed(workers)
    speedup = serial / parallel
    emit(
        "parallel resilience sweep",
        f"serial {serial:.2f} s, {workers} workers {parallel:.2f} s: {speedup:.2f}x",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"resilience matrix only {speedup:.2f}x faster with {workers} "
        f"workers on {available_cpus()} CPUs"
    )
