"""Parallel sweeps.

The experiments' repetition×policy×profile sweeps are embarrassingly
parallel — every repetition is an isolated :class:`Session` whose seed
is derived only from the config — so :mod:`repro.perf.parallel` fans
them out over worker processes with a merge step that is bit-identical
to the serial path by construction (both paths fold the same per-task
subtotals in the same order).

The repository benchmark lives outside the package, in ``perfbench/``
(``python3 perfbench/run.py``).
"""

from repro.perf.parallel import (
    available_cpus,
    get_default_workers,
    pmap,
    resolve_workers,
    set_default_workers,
)

__all__ = [
    "available_cpus",
    "get_default_workers",
    "pmap",
    "resolve_workers",
    "set_default_workers",
]
