"""Host-speed calibration interleaved with the measured work.

A host's speed drifts when other work shares its CPUs: with one other
CPU-bound process on a 2-CPU host, the same deterministic workload
took from 17 to 23 s in back-to-back runs, and a fixed pure-Python loop
drifted with it.  :class:`Calibrator` runs such a loop every
:data:`PERIOD_CPU_S` of process CPU time, from a ``SIGVTALRM`` handler,
so it samples the host's speed throughout the measured work.
:meth:`Calibrator.reference_s` converts measured seconds into
reference seconds: what they would have been at the loop's nominal
speed.  Under that load, six runs of the same ``pool`` work spread by
0.13 in raw time and by 0.01 in its ratio to this loop's time.

The handler runs between bytecodes of the main thread and touches no
simulator state, so it cannot change a simulated result; its own CPU
time is subtracted from the work it interrupted.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import List

#: CPU seconds between calibration samples.
PERIOD_CPU_S = 0.5
#: Iterations of the calibration loop per sample (~16 ms here).
LOOP_ITERATIONS = 10_000
#: Keys in the loop's table: a working set past the L2 cache, like the
#: simulator's per-peer dicts.  It adds ~5 MB to ``peak_rss_mb``.
TABLE_KEYS = 30_000
#: The loop's seconds on a quiet 2-CPU host of the kind the bounds were
#: set on; it only scales the reported figures.
NOMINAL_LOOP_S = 0.016


class Calibrator:
    """Samples host speed on a CPU-time timer while it is running."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None
        self._keys = [f"peer-{i}.calibration.example" for i in range(TABLE_KEYS)]
        self._order = list(range(TABLE_KEYS))
        random.Random(TABLE_KEYS).shuffle(self._order)
        self._table = dict.fromkeys(self._keys, 0.0)

    def loop(self) -> float:
        """Dict, heap and string work like the simulator's; returns the
        wall seconds it took (CPU time is too coarse on some hosts)."""
        keys, order, table = self._keys, self._order, self._table
        started = time.perf_counter()
        heap: List[tuple] = []
        for i in range(LOOP_ITERATIONS):
            key = keys[order[(i * 7919) % TABLE_KEYS]]
            table[key] += 1.0
            heapq.heappush(heap, (i * 0.37 % 101.0, key))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - started

    def _on_timer(self, _signum, _frame) -> None:
        self.samples.append(self.loop())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_CPU_S, PERIOD_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGVTALRM, self._previous)

    def sample_now(self, n: int = 1) -> None:
        """Take ``n`` samples now, after one untimed pass to warm caches."""
        self.loop()
        self.samples.extend(self.loop() for _ in range(n))

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def reference_s(self, seconds: float) -> float:
        """``seconds`` of work at this host's sampled speed, converted
        to seconds at the loop's nominal speed.  The median sample is
        used: a sample that starts on caches the simulator just filled
        reads slow."""
        return seconds * NOMINAL_LOOP_S / statistics.median(self.samples)
