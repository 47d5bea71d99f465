"""Bit-identity pins for the studies' results.

The fast path (slotted ``call_at`` events, the region-pair delay cache,
skipped ``NoLoss`` models, trace records built only when tracing is on,
bulk staleness stamps) must not change a single result.  Nor may
removing the recovery and swarm switches no study set: the recovery
stack and the swarm always run the one configuration every study ran.
Nor may sharing one experiment harness (selector factory, peer
bring-up, warmup probe, deadline-supervised attempt) between studies.
The digests below were recorded on the code before each change: any
change to event order, to a float's rounding or to a random stream's
draw count moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import (
    ExperimentConfig,
    churn,
    fig2_petition,
    fig6_selection,
    resilience,
    scale,
    swarming,
)
from repro.experiments.scenario import Session
from repro.faults import get_profile
from repro.faults.injectors import LossBurst, Partition
from repro.faults.plan import FaultPlan
from repro.gossip.config import GossipConfig
from repro.obs import MetricsRegistry, use_registry
from repro.recovery import RecoveryConfig
from repro.units import mbit

#: sha256 of ``repr(fig2_petition.run(ExperimentConfig(seed=2007, repetitions=5)))``.
FIG2_DIGEST = "d864312f16143ad1825bb2a27fb6845430f7f82bfd6b5f6441aa560dc6f8eb8d"
#: sha256 of ``repr`` of the 200-peer ``scale.run_large`` cell below.
LARGE_CELL_DIGEST = "fc05d4cbb5c1441188089e145c7b9e94a34474a4c6e7fb04e9a7df9a6bb38d7d"
#: sha256 of ``repr`` of the sorted summaries of the self-healing
#: resilience matrix over every default profile, seed 2007, one rep.
RESILIENCE_RECOVERY_DIGEST = "89ecedc57ef94e107f01fb9c6dc0f5b9f5a3615878f6ec9972edc8c5004bd5ef"


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _summaries_digest(result) -> str:
    return hashlib.sha256(repr(sorted(result.summaries.items())).encode()).hexdigest()


def test_fig2_digest_unchanged():
    result = fig2_petition.run(ExperimentConfig(seed=2007, repetitions=5))
    assert _digest(result) == FIG2_DIGEST


def test_large_pool_cell_digest_unchanged():
    # 200 peers run the keepalive and stat-report plane at scale: the
    # messages the fast path was built for.
    config = ExperimentConfig(seed=2007, repetitions=1, flow_tick=30.0)
    result = scale.run_large(config, pools=(200,), n_jobs=8, concurrency=8)
    assert _digest(result) == LARGE_CELL_DIGEST


_ONE_REP = ExperimentConfig(seed=2007, repetitions=1)


@pytest.mark.parametrize(
    "study, digest",
    [
        (
            lambda: _digest(fig6_selection.run(_ONE_REP)),
            "e6bc645462bd9ec624d02d8c6b3160fcd60684190a802fe7b8175d7d37ff3321",
        ),
        (
            lambda: _digest(churn.run(_ONE_REP)),
            "e650a41deb6317e8f9ed2b1e69f2ec60f4c3467c6f3bb2caf48d8a10381ecc31",
        ),
        (
            lambda: _digest(scale.run(_ONE_REP)),
            "fd048956b3a28123ca851d223693465efd2bae78d57810d3e85dfdfe31b1a40d",
        ),
        (
            lambda: _summaries_digest(resilience.run(_ONE_REP, workers=1)),
            "0feb932edb59a1ab98ae5a2dff4a5ecccfd5c3aa04e0f6db242b354dd1306c42",
        ),
        # Federated branch of ``Session.connect_all``: SCs enrol, join
        # their home shard, then gossip starts.
        (
            lambda: _digest(fig2_petition.run(ExperimentConfig(
                seed=2007, repetitions=1, gossip=GossipConfig(),
                federation_brokers=3,
            ))),
            "12d3339092c151644d052a821dfbc3d650f91eeaa8f304db92d1c9b901e5bc25",
        ),
        # Both testbeds: synthetic replicas brought up per cell, and
        # the slice25 SCs.
        (
            lambda: _summaries_digest(swarming.run(_ONE_REP)),
            "caf41a12d2e62160e9b51bd7ffd6f2e71490eeaac92d8e487c02b8f27b44f81b",
        ),
    ],
    ids=["fig6", "churn", "scale", "resilience", "fig2-federated", "swarming"],
)
def test_study_digest_unchanged(study, digest):
    assert study() == digest


def test_federated_smoke_digest_unchanged(monkeypatch):
    # Keepalive baseline cell plus gossip-federated cells, each brought
    # up a join wave at a time.
    monkeypatch.setenv("REPRO_FED_SMOKE", "1")
    result = scale.run_federated(_ONE_REP)
    assert _digest(result) == (
        "c13fd15251479eeac966410a60f8bf1a9dabf1a239cb1d2e815ebb04abb3381e"
    )


def test_resilience_with_recovery_digest_unchanged():
    # Every recovery pillar engages: resumes, standby failovers and
    # degraded selection.
    config = ExperimentConfig(seed=2007, repetitions=1, recovery=RecoveryConfig())
    with use_registry(MetricsRegistry()) as reg:
        result = resilience.run(config, workers=1)
    assert _summaries_digest(result) == RESILIENCE_RECOVERY_DIGEST
    counters = reg.to_dict()["counters"]
    assert counters["selection.degraded"] == 36
    assert counters["recovery.failovers"] == 3
    assert counters["recovery.resumes"] == 1


@pytest.mark.parametrize(
    "profile, digest, reassignments",
    [
        (None, "c5675a47f02eeab8c4a111c3901fafcc724dc1e9305383a051c02b36f59013b4", 0),
        # Partitioned sources fail and are replaced.
        ("partition_eu", "10001ee8164bc8994ae891f2e1907adad58adcfcf219a4511cec5add6fa25597", 5),
    ],
    ids=["calibrated", "partition_eu"],
)
def test_swarm_smoke_digest_unchanged(profile, digest, reassignments, monkeypatch):
    # Same, for the smoke-sized swarming sweep at seed 2007.
    monkeypatch.setenv("REPRO_SWARM_SMOKE", "1")
    plan = get_profile(profile) if profile is not None else None
    with use_registry(MetricsRegistry()) as reg:
        result = swarming.run(ExperimentConfig(seed=2007, fault_plan=plan))
    assert _summaries_digest(result) == digest
    assert reg.to_dict()["counters"]["swarm.reassignments"] == reassignments


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
