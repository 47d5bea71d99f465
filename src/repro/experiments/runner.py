"""Experiment runner: repetition loop, averaging and scenario steps.

The paper repeats each measurement five times and reports the average.
:func:`run_repetitions` builds a fresh :class:`~repro.experiments.scenario.Session`
per repetition (fresh seed substream, fresh overlay) and hands the
per-repetition result rows to :func:`average_rows` for the figures'
mean series.  :func:`warmup_probe` and :func:`supervised` are the two
scenario steps several studies share: a deadline-bounded probe that
builds the broker's history, and a deadline-supervised attempt with
completed / aborted / censored accounting.

Repetitions are embarrassingly parallel — each one's seed derives only
from the config — so ``workers > 1`` fans them out over a process pool
(:mod:`repro.perf.parallel`).  Parallel runs are bit-identical to
serial ones by construction: the serial path runs the *same* per-
repetition worker (fresh session, isolated per-repetition metrics
registry) in-process, and both paths fold results and registries back
in repetition order.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.errors import TransferAborted
from repro.experiments.scenario import ExperimentConfig, Session
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import active_registry, use_registry
from repro.perf.parallel import picklable, pmap, resolve_workers

__all__ = ["run_repetitions", "average_rows", "warmup_probe", "supervised"]


def _run_one_repetition(task: Tuple[ExperimentConfig, Callable, int, bool]):
    """One repetition in isolation (the unit both sweep paths run).

    Returns ``(result, sim_time_s, registry_or_None)``.  With metrics
    wanted, the repetition runs under its own fresh registry — the
    caller merges registries back in repetition order, so the merge
    tree (per-repetition subtotals folded in order) is the same
    whether the repetition ran in-process or in a worker.
    """
    config, scenario, rep, with_metrics = task
    registry = MetricsRegistry() if with_metrics else None
    scope = use_registry(registry) if registry is not None else nullcontext()
    with scope:
        session = Session(config.for_repetition(rep))
        result = session.run(scenario)
    return result, session.sim.now, registry


def run_repetitions(
    config: ExperimentConfig,
    scenario: Callable[[Session], object],
    workers: Optional[int] = None,
) -> List[object]:
    """Run ``scenario`` once per repetition on fresh sessions.

    ``scenario(session)`` must return a generator process (the session
    connects all peers first, then runs it).  Returns the list of
    per-repetition results, in repetition order.

    ``workers`` > 1 runs repetitions on a process pool (``None`` uses
    the :mod:`repro.perf.parallel` default, normally serial; ``0`` =
    one worker per CPU).  A scenario that cannot be pickled (e.g. a
    closure) silently degrades to the serial path.

    When a metrics registry is installed (``repro.obs.use_registry``)
    every repetition's instruments accumulate into it, plus a
    per-repetition count and sim-duration histogram from here.
    """
    reg = active_registry()
    # Cold path: bound once per experiment run, used once per repetition.
    m_reps = reg.counter("experiment.repetitions")  # simlint: disable=SIM006 -- per-run binding, not per-event
    m_sim_s = reg.histogram(  # simlint: disable=SIM006 -- per-run binding, not per-event
        "experiment.rep_sim_time_s",
        bounds=(1, 10, 60, 300, 600, 1800, 3600, 7200, 14400),
    )
    tasks = [
        (config, scenario, rep, reg.enabled)
        for rep in range(config.repetitions)
    ]
    n_workers = resolve_workers(workers, len(tasks))
    if n_workers > 1 and not picklable(scenario):
        n_workers = 1
    outcomes = pmap(_run_one_repetition, tasks, workers=n_workers)

    results: List[object] = []
    for result, sim_time_s, rep_registry in outcomes:  # repetition order
        results.append(result)
        if rep_registry is not None:
            reg.merge(rep_registry)
        m_reps.inc()
        m_sim_s.observe(sim_time_s)
    return results


def average_rows(
    rows: List[Mapping[str, float]]
) -> Dict[str, Summary]:
    """Per-key summaries across repetition rows."""
    if not rows:
        raise ValueError("no rows to average")
    keys = set(rows[0])
    for row in rows[1:]:
        if set(row) != keys:
            raise ValueError("repetition rows disagree on keys")
    return {key: summarize([row[key] for row in rows]) for key in sorted(keys)}


def warmup_probe(
    session: Session,
    adv,
    filename: str,
    total_bits: float,
    n_parts: int,
    deadline_s: float,
):
    """Generator: a deadline-bounded probe transfer from the broker.

    Builds the broker's observed goodput and latency history for the
    peer behind ``adv``.  Once ``deadline_s`` has passed since the
    petition was accepted, the next part is not sent: the transfer is
    cancelled, which the broker records against the peer.  A refused
    petition or an aborted part ends the probe quietly.
    """
    sim = session.sim
    try:
        handle = yield sim.process(
            session.broker.transfers.open_transfer(
                adv, filename=filename, total_bits=total_bits
            )
        )
    except TransferAborted:
        return
    part_bits = total_bits / n_parts
    started = sim.now
    for _ in range(n_parts):
        if sim.now - started > deadline_s:
            handle.cancel("deadline")
            return
        try:
            yield sim.process(handle.send_part(part_bits))
        except TransferAborted:
            return
    handle.close()


def supervised(
    sim,
    proc,
    timeout_s: float,
    ok: Callable[[Any], bool],
    abort: Optional[Callable[[], None]] = None,
):
    """Generator: wait at most ``timeout_s`` for the process ``proc``.

    Returns ``(status, value)``.  A process that ends in time is
    ``"completed"`` or ``"aborted"`` as ``ok(value)`` says.  One still
    running at the deadline is ``"censored"``: its outcome is unknown,
    neither success nor failure.  With ``abort`` the censored process
    is told to stop and awaited, and ``value`` is what it returns;
    without, it is left running and ``value`` is None.
    """
    yield sim.any_of([proc, sim.timeout(timeout_s)])
    if proc.triggered:
        value = proc.value
        return ("completed" if ok(value) else "aborted"), value
    if abort is None:
        return "censored", None
    abort()
    yield proc
    return "censored", proc.value
