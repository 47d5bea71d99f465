"""Bit-identity of the per-datagram fast path.

The fast path (slotted ``call_at`` events, the region-pair delay cache,
skipped ``NoLoss`` models, trace records built only when tracing is on,
bulk staleness stamps) must not change a single result.  The digests
below were recorded on the code before the fast path existed: any
change to event order, to a float's rounding or to a random stream's
draw count moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import ExperimentConfig, fig2_petition, scale
from repro.experiments.scenario import Session
from repro.faults.injectors import LossBurst, Partition
from repro.faults.plan import FaultPlan
from repro.units import mbit

#: sha256 of ``repr(fig2_petition.run(ExperimentConfig(seed=2007, repetitions=5)))``.
FIG2_DIGEST = "d864312f16143ad1825bb2a27fb6845430f7f82bfd6b5f6441aa560dc6f8eb8d"
#: sha256 of ``repr`` of the 200-peer ``scale.run_large`` cell below.
LARGE_CELL_DIGEST = "fc05d4cbb5c1441188089e145c7b9e94a34474a4c6e7fb04e9a7df9a6bb38d7d"


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def test_fig2_digest_unchanged():
    result = fig2_petition.run(ExperimentConfig(seed=2007, repetitions=5))
    assert _digest(result) == FIG2_DIGEST


def test_large_pool_cell_digest_unchanged():
    # 200 peers run the keepalive and stat-report plane at scale: the
    # messages the fast path was built for.
    config = ExperimentConfig(seed=2007, repetitions=1, flow_tick=30.0)
    result = scale.run_large(config, pools=(200,), n_jobs=8, concurrency=8)
    assert _digest(result) == LARGE_CELL_DIGEST


def _transfers(session: Session):
    """Every SC receives a 4-part file: petitions, parts, confirms and
    bulk units, over lossy calibrated links."""
    times = {}
    for label in session.sc_labels():
        outcome = yield session.sim.process(
            session.broker.transfers.send_file(
                session.client(label).advertisement(),
                filename=f"f-{label}",
                total_bits=mbit(8),
                n_parts=4,
            )
        )
        times[label] = (outcome.petition_time, session.sim.now)
    return times


#: Extra loss on every SimpleClient plus a short netsplit, so sends and
#: bulk units also go through the extra-loss and partition checks.
LOSSY_PLAN = FaultPlan(
    name="lossy",
    schedule=(
        (0.0, LossBurst(target="simpleclients", per_mb_loss=0.3, duration_s=120.0)),
        (5.0, Partition(group_a="SC1", duration_s=30.0)),
    ),
)


@pytest.mark.parametrize("plan", [None, LOSSY_PLAN], ids=["calibrated", "lossy"])
def test_tracing_does_not_change_results(plan):
    """Trace records are built only when tracing is on; turning it on
    must not move a result, a clock or an event count."""
    sessions = {
        trace: Session(ExperimentConfig(seed=2007, trace=trace, fault_plan=plan))
        for trace in (False, True)
    }
    off, on = (sessions[trace].run(_transfers) for trace in (False, True))
    assert on == off
    assert sessions[True].sim.now == sessions[False].sim.now
    assert sessions[True].sim.events_processed == sessions[False].sim.events_processed
    assert len(sessions[False].tracer) == 0
    kinds = {event.kind for event in sessions[True].tracer}
    assert {"msg-send", "msg-recv", "transfer-done"} <= kinds
