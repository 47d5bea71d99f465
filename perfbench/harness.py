"""Workload definitions, outside-in accounting and output checks.

Everything here drives the simulator through its public study
functions (``repro.experiments.*.run``) and observes it by wrapping
public entry points from outside; no file under ``src/`` is changed.

A workload is a list of :class:`Study` calls run serially in one
process.  ``timed`` studies make up ``wall_s``; untimed ones still run
in the same process and still count toward the failure and operation
ratios (see NOTES.md for why ``paper`` runs fig5 untimed).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import statistics
import time
import weakref
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Default workload seed (the paper's year; the CLI default too).
DEFAULT_SEED = 2007

#: Environment variables that would change what a study runs.
STUDY_ENV = ("REPRO_PARALLEL", "REPRO_SWARM_SMOKE", "REPRO_FED_SMOKE")

#: Figure 2 panel size for ``fig2_err`` (see NOTES.md).
FIG2_PANEL = 64
#: Paper's Figure 5 16-part grand mean, minutes.
FIG5_PAPER_MINUTES = 1.7
#: Absolute floor for Figure 2 relative errors (docs/CALIBRATION.md).
FIG2_FLOOR_S = 0.05
#: ``pool`` observes the large-pool study for this many simulated
#: seconds: the whole study at seed 2007 (9.8k s), while some seeds run
#: to 90k s (NOTES.md).
POOL_HORIZON_S = 10_000.0
#: A session still running at this simulated time is a runaway: it is
#: stopped and fails its repetition.  The longest finished session seen
#: (fig5, a whole 100 Mb unit retried up to 50 times) ran 26k s; a
#: fig7 repetition at seed 523647 never ends (NOTES.md).
RUNAWAY_SIM_S = 100_000.0


class Study(NamedTuple):
    name: str
    call: Callable[[], Any]
    timed: bool = True
    #: Stop each session of the study at this simulated time.
    horizon_s: Optional[float] = None


class HorizonReached(Exception):
    """A study was cut at its horizon: the workload's end, not a failure."""


class Runaway(Exception):
    """A session was still running at :data:`RUNAWAY_SIM_S`."""


def _paper(seed: int) -> List[Study]:
    from repro.experiments import (
        ExperimentConfig,
        fig2_petition,
        fig3_fulltransfer,
        fig4_lastmb,
        fig5_granularity,
        fig6_selection,
        fig7_execution,
        table1_nodes,
    )

    config = ExperimentConfig(seed=seed, repetitions=5)
    return [
        Study("table1", table1_nodes.run),
        Study("fig2", functools.partial(fig2_petition.run, config)),
        Study("fig3", functools.partial(fig3_fulltransfer.run, config)),
        Study("fig4", functools.partial(fig4_lastmb.run, config)),
        Study("fig6", functools.partial(fig6_selection.run, config)),
        Study("fig7", functools.partial(fig7_execution.run, config)),
        # Untimed: aborts with TransferAborted on most seeds, which
        # would make the timed work depend on luck (NOTES.md).
        Study("fig5", functools.partial(fig5_granularity.run, config), timed=False),
    ]


def _pool(seed: int) -> List[Study]:
    from repro.experiments import ExperimentConfig, scale

    config = ExperimentConfig(seed=seed, repetitions=1, flow_tick=30.0)
    return [
        Study(
            "scale_large",
            functools.partial(
                scale.run_large, config, pools=(500,), n_jobs=12, concurrency=16
            ),
            horizon_s=POOL_HORIZON_S,
        )
    ]


def _swarm(seed: int) -> List[Study]:
    from repro.experiments import ExperimentConfig, swarming

    config = ExperimentConfig(seed=seed, repetitions=5)
    return [Study("swarming", functools.partial(swarming.run, config))]


def _federation(seed: int) -> List[Study]:
    from repro.experiments import ExperimentConfig, scale

    config = ExperimentConfig(seed=seed, repetitions=1)
    return [
        Study(
            "scale_federated",
            functools.partial(
                scale.run_federated,
                config,
                pools=(500,),
                baseline_pool=100,
                brokers=3,
            ),
        )
    ]


def _faults(seed: int) -> List[Study]:
    from repro.experiments import ExperimentConfig, churn, resilience
    from repro.recovery.config import RecoveryConfig

    config = ExperimentConfig(seed=seed, repetitions=5)
    healing = dataclasses.replace(config, recovery=RecoveryConfig())
    return [
        Study("resilience", functools.partial(resilience.run, healing, workers=1)),
        Study("churn", functools.partial(churn.run, config)),
    ]


#: name -> (build(seed) -> studies in run order, seeds per panel).
#: A panel averages the seed-to-seed swing in simulated work; its size
#: is set so that one panel takes roughly 8-18 s here (NOTES.md).
WORKLOADS: Dict[str, Tuple[Callable[[int], List[Study]], int]] = {
    "paper": (_paper, 6),
    "pool": (_pool, 1),
    "swarm": (_swarm, 4),
    "federation": (_federation, 3),
    "faults": (_faults, 3),
}

#: Stride between the seeds of a panel; the first seed is ``--seed``.
PANEL_STRIDE = 104729


def panel_seeds(seed: int, size: int) -> List[int]:
    return [seed + PANEL_STRIDE * i for i in range(size)]


def studies(workload: str, seed: int, panel: bool = True) -> List[Study]:
    """The workload's studies for ``seed``'s panel (or ``seed`` alone).

    Timed studies run for every seed of the panel; untimed studies run
    for ``seed`` only, after all timed ones.  Names carry the seed.
    """
    build, size = WORKLOADS[workload]
    timed: List[Study] = []
    untimed: List[Study] = []
    for i, sub_seed in enumerate(panel_seeds(seed, size if panel else 1)):
        for study in build(sub_seed):
            named = study._replace(name=f"{study.name}@{sub_seed}")
            if study.timed:
                timed.append(named)
            elif i == 0:
                untimed.append(named)
    return timed + untimed


# -- accounting ---------------------------------------------------------------


@dataclasses.dataclass
class Accounting:
    """Repetition, simulated-time and operation counts for one process."""

    reps_requested: int = 0
    reps_failed: int = 0
    sim_s: float = 0.0
    #: Horizon of the running study, if it has one.
    horizon_s: Optional[float] = None
    #: Wall seconds spent in runaway sessions (excluded from the speed).
    runaway_s: float = 0.0
    ops_attempted: Dict[str, int] = dataclasses.field(default_factory=dict)
    ops_ok: Dict[str, int] = dataclasses.field(default_factory=dict)

    def op_started(self, kind: str) -> None:
        self.ops_attempted[kind] = self.ops_attempted.get(kind, 0) + 1

    def op_ok(self, kind: str) -> None:
        self.ops_ok[kind] = self.ops_ok.get(kind, 0) + 1


#: Wrapper generator -> module name of the generator it delegates to,
#: so the tracer attributes a counted operation to its real layer.
GENERATOR_ORIGIN: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()


def _counted(gen, acct: Accounting, kind: str, ok: Callable[[Any], bool]):
    acct.op_started(kind)
    result = yield from gen
    if ok(result):
        acct.op_ok(kind)
    return result


def _wrap_operation(owner: type, attr: str, acct: Accounting, kind: str, ok) -> None:
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        outer = _counted(inner, acct, kind, ok)
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        GENERATOR_ORIGIN[outer] = inner.gi_frame.f_globals.get("__name__", "")
        return outer

    setattr(owner, attr, wrapper)


def install_accounting() -> Accounting:
    """Count repetitions, simulated seconds and simulated operations.

    * ``Session.run`` is one repetition: its simulated clock is added
      to ``sim_s`` whether it returns or raises, and a raise counts
      toward ``reps_failed``.  With a horizon set, the session is
      stopped there and :class:`HorizonReached` ends the study; without
      one, a session still running at :data:`RUNAWAY_SIM_S` fails with
      :class:`Runaway`; its simulated time is not counted and its wall
      time goes to ``runaway_s``.
    * The repetition harness's ``pmap`` call tells how many
      repetitions a study requested, including those a raise skipped.
    * Transfers, resumed transfers, swarm downloads and discovery
      queries are counted when their generator starts and counted ok
      when it returns (with ``outcome.ok`` where the API never raises).
    """
    from repro.errors import SimStopped
    from repro.experiments import runner
    from repro.experiments.scenario import Session
    from repro.overlay.discovery import DiscoveryService
    from repro.overlay.filetransfer import FileTransferService
    from repro.recovery.resume import ResumableSender
    from repro.simnet.kernel import Simulator
    from repro.swarm.coordinator import SwarmCoordinator

    acct = Accounting()

    session_run = Session.run
    call_at = Simulator.call_at  # untraced even when spans are installed

    @functools.wraps(session_run)
    def run(self, process_fn):
        horizon = acct.horizon_s
        limit = horizon if horizon is not None else RUNAWAY_SIM_S
        call_at(self.sim, limit, self.sim.stop)
        started = time.perf_counter()
        try:
            result = session_run(self, process_fn)
        except SimStopped:
            if self.sim.now < limit:
                acct.reps_failed += 1
                acct.sim_s += self.sim.now
                raise
            if horizon is not None:
                acct.sim_s += self.sim.now
                raise HorizonReached(
                    f"cut at {self.sim.now:.0f} simulated s after "
                    f"{self.sim.events_processed} kernel events"
                ) from None
            acct.reps_failed += 1
            acct.runaway_s += time.perf_counter() - started
            raise Runaway(f"session still running at {limit:.0f} simulated s") from None
        except BaseException:
            acct.reps_failed += 1
            acct.sim_s += self.sim.now
            raise
        acct.sim_s += self.sim.now
        return result

    Session.run = run

    pmap = runner.pmap

    @functools.wraps(pmap)
    def counting_pmap(fn, tasks, workers=None):
        items = list(tasks)
        acct.reps_requested += len(items)
        return pmap(fn, items, workers=workers)

    runner.pmap = counting_pmap

    returned = lambda _result: True  # noqa: E731 - raising means failed
    outcome_ok = lambda result: bool(result.ok)  # noqa: E731
    _wrap_operation(FileTransferService, "send_file", acct, "transfer", returned)
    _wrap_operation(ResumableSender, "send_file", acct, "resumed_transfer", outcome_ok)
    _wrap_operation(SwarmCoordinator, "download", acct, "swarm_download", outcome_ok)
    _wrap_operation(DiscoveryService, "query", acct, "discovery_query", returned)
    return acct


# -- first kernel event -----------------------------------------------------------


def on_first_event(callback: Callable[[], None]) -> None:
    """Call ``callback`` once, just before the first kernel event.

    The hook removes itself on first use, so untraced runs pay one
    extra call in total.
    """
    from repro.simnet.kernel import Simulator

    step = Simulator.step

    def first_step(self):
        Simulator.step = step
        callback()
        return step(self)

    Simulator.step = first_step


# -- digests and checks ---------------------------------------------------------


def result_digest(result: Any) -> str:
    """Stable digest of a study result's summaries."""
    text = repr(result)
    if " at 0x" in text:  # an object repr would differ per process
        text = result.table()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def raised_digest(exc: BaseException) -> str:
    text = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fig2_error(result: Any) -> float:
    """Mean relative error of Figure 2 petition means vs the paper."""
    from repro.simnet.planetlab import FIGURE2_PETITION_TARGETS

    errors = [
        abs(result.summaries[label].mean - target) / max(target, FIG2_FLOOR_S)
        for label, target in FIGURE2_PETITION_TARGETS.items()
    ]
    return sum(errors) / len(errors)


def fig5_error(result: Any) -> float:
    """Relative error of the 16-part grand mean vs the paper's 1.7 min."""
    return abs(result.grand_mean_minutes(16) - FIG5_PAPER_MINUTES) / FIG5_PAPER_MINUTES


def paper_shape_failures(results: Dict[str, Any]) -> List[str]:
    """The paper's shape over a ``paper`` run; returns the checks that failed.

    ``results`` maps ``study@seed`` to the results of studies that
    completed.  Means are taken over every seed of the panel, as the
    paper's figures are means over repetitions: one seed's 5
    repetitions can invert fig6 (seed 104740: economic 1.758 s/Mb,
    quick_peer 1.699).  fig5 is checked when it completes; its abort is
    counted as a failed repetition instead.
    """
    def completed(study: str) -> List[Any]:
        return [r for key, r in results.items() if key.partition("@")[0] == study]

    failures = []
    fig2 = completed("fig2")
    if not fig2:
        failures.append("fig2 completed on no seed")
    else:
        means = {
            label: statistics.fmean(r.summaries[label].mean for r in fig2)
            for label in fig2[0].summaries
        }
        slowest = max(means, key=means.get)
        if slowest != "SC7":
            failures.append(f"fig2: slowest peer is {slowest}, not SC7")
    for fig5 in completed("fig5"):
        whole, four, sixteen = (fig5.grand_mean_minutes(n) for n in (1, 4, 16))
        if not whole > four > sixteen:
            failures.append(
                f"fig5: grand means {whole:.2f}/{four:.2f}/{sixteen:.2f} min "
                "are not whole > 4 parts > 16 parts"
            )
    fig6 = completed("fig6")
    if not fig6:
        failures.append("fig6 completed on no seed")
    else:
        economic = statistics.fmean(r.cost("economic", 4) for r in fig6)
        quick_peer = statistics.fmean(r.cost("quick_peer", 4) for r in fig6)
        if not economic < quick_peer:
            failures.append(
                f"fig6: economic {economic:.3f} s/Mb does not beat "
                f"quick_peer {quick_peer:.3f} s/Mb at 4 parts"
            )
    return failures


def fig2_panel_error(seed: int, panel: int = FIG2_PANEL) -> float:
    """``fig2_err`` averaged over a panel of seeds derived from ``seed``.

    One fig2 run (5 repetitions) has a relative error dominated by its
    own sampling noise; the panel mean is steady enough to gate on.
    """
    from repro.experiments import ExperimentConfig, fig2_petition

    errors = [
        fig2_error(fig2_petition.run(ExperimentConfig(seed=seed + 7919 * i, repetitions=5)))
        for i in range(panel)
    ]
    return sum(errors) / len(errors)


def run_studies(
    studies: List[Study],
    acct: Accounting,
    on_timed_done: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Run every study once, serially; never lets a study's raise escape.

    Returns per-study results (absent when the study raised or was cut
    at its horizon), digests, raise and cut messages, and the wall and
    CPU seconds of this process spent in timed studies.
    """
    results: Dict[str, Any] = {}
    digests: Dict[str, str] = {}
    raised: Dict[str, str] = {}
    cut: Dict[str, str] = {}
    wall_s = cpu_s = 0.0
    timed_done = False
    for study in studies:
        if not study.timed and not timed_done:
            timed_done = True
            if on_timed_done is not None:
                on_timed_done()
        acct.horizon_s = study.horizon_s
        started, started_cpu = time.perf_counter(), time.process_time()
        try:
            result = study.call()
        except HorizonReached as exc:
            digests[study.name] = raised_digest(exc)
            cut[study.name] = str(exc)
        except Exception as exc:  # counted, recorded and reported
            digests[study.name] = raised_digest(exc)
            raised[study.name] = f"{type(exc).__name__}: {exc}"
        else:
            results[study.name] = result
            digests[study.name] = result_digest(result)
        if study.timed:
            wall_s += time.perf_counter() - started
            cpu_s += time.process_time() - started_cpu
    if not timed_done and on_timed_done is not None:
        on_timed_done()
    return {"results": results, "digests": digests, "raised": raised, "cut": cut,
            "wall_s": wall_s, "cpu_s": cpu_s}
