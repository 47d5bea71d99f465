"""Tests for standby-broker replication and failover."""

from __future__ import annotations

import math

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.faults.injectors import BrokerOutage
from repro.faults.plan import FaultPlan
from repro.overlay.peer import PeerConfig
from repro.recovery import RecoveryConfig, ResumableSender
from repro.selection.base import SelectionContext, Workload

_PEER_CONFIG = PeerConfig(
    petition_timeout_s=40.0,
    petition_retries=2,
    confirm_timeout_s=20.0,
    confirm_retries=2,
    bulk_max_attempts=6,
)


def _config(seed=21, recovery=None, fault_plan=None, trace=False):
    return ExperimentConfig(
        seed=seed,
        repetitions=1,
        peer_config=_PEER_CONFIG,
        recovery=recovery if recovery is not None else RecoveryConfig(),
        fault_plan=fault_plan,
        trace=trace,
    )


def _idle(horizon_s):
    def scenario(session):
        yield horizon_s
        return None

    return scenario


class TestReplication:
    def test_standby_registry_warm_after_replication(self):
        session = Session(_config())
        session.run(_idle(100.0))
        primary_names = {
            r.adv.name for r in session.broker.candidates(kind="simpleclient")
        }
        standby_names = {
            r.adv.name
            for r in session.standby.candidates(
                kind="simpleclient", online_only=False, liveness_timeout_s=None
            )
        }
        assert standby_names == primary_names == {
            f"SC{i}" for i in range(1, 9)
        }

    def test_replicated_records_carry_snapshots(self):
        session = Session(_config())
        session.run(_idle(200.0))
        for rec in session.standby.candidates(
            kind="simpleclient", online_only=False, liveness_timeout_s=None
        ):
            assert rec.home_broker == session.broker.peer_id
            assert rec.last_seen > 0.0


class TestFailover:
    def test_promotion_on_long_outage(self):
        plan = FaultPlan(
            name="die",
            schedule=((50.0, BrokerOutage(duration_s=600.0)),),
        )
        session = Session(_config(fault_plan=plan, trace=True))
        session.run(_idle(500.0))
        director = session.failover
        assert director.promoted
        assert session.leader_broker is session.standby
        assert len(director.failovers) == 1
        assert director.mean_failover_latency_s() > 0.0
        kinds = [e.kind for e in session.tracer.events]
        assert "broker-failover" in kinds

    def test_no_promotion_when_healthy(self):
        session = Session(_config())
        session.run(_idle(600.0))
        assert not session.failover.promoted
        assert session.leader_broker is session.broker
        assert math.isnan(session.failover.mean_failover_latency_s())

    def test_clients_rehome_to_standby(self):
        plan = FaultPlan(
            name="die",
            schedule=((50.0, BrokerOutage(duration_s=900.0)),),
        )
        session = Session(_config(fault_plan=plan))
        session.run(_idle(700.0))
        rehomed = sum(
            1
            for c in session.clients.values()
            if c.broker_adv is not None
            and c.broker_adv.peer_id == session.standby.peer_id
        )
        assert rehomed == len(session.clients)

    def test_promotion_deterministic_same_seed(self):
        def once():
            plan = FaultPlan(
                name="die",
                schedule=((50.0, BrokerOutage(duration_s=600.0)),),
            )
            session = Session(_config(fault_plan=plan))
            session.run(_idle(500.0))
            return session.failover.failovers[0]

        a, b = once(), once()
        assert a.promoted_at == b.promoted_at
        assert a.latency_s == b.latency_s


class TestPetitionsDuringOutage:
    """Acceptance: under broker outage windows, petitions issued
    *inside* the windows complete >= 95% with recovery on, for all
    three selection policies."""

    @pytest.mark.parametrize("policy", ["blind", "economic", "same_priority"])
    def test_outage_window_petitions_complete(self, policy):
        plan = FaultPlan(
            name="blips",
            schedule=(
                (100.0, BrokerOutage(duration_s=60.0)),
                (400.0, BrokerOutage(duration_s=60.0)),
            ),
        )
        session = Session(_config(seed=31, fault_plan=plan))

        def scenario(s):
            sim = s.sim
            selector = s.selector(
                policy,
                "test",
                reserve=False,
                budget_s=s.config.recovery.staleness_budget_s,
            )
            sender = ResumableSender(s.broker, s.config.recovery)
            outs = []

            def pick(failed):
                governor = s.leader_broker
                candidates = [
                    r
                    for r in governor.candidates(
                        kind="simpleclient",
                        online_only=False,
                        liveness_timeout_s=None,
                    )
                    if r.peer_id not in failed
                ]
                if not candidates:
                    return None
                ctx = SelectionContext(
                    broker=governor,
                    now=sim.now,
                    workload=Workload(transfer_bits=2e6, n_parts=1),
                    candidates=candidates,
                )
                return selector.select(ctx).adv

            def issue(i):
                out = yield sim.process(
                    sender.send_file(
                        lambda a, failed: pick(failed),
                        f"{policy}-win-{i}",
                        2e6,
                        n_parts=1,
                    )
                )
                outs.append(out)

            procs = []
            # Ten petitions, all issued while the broker is dark.
            for k in range(5):
                yield max(0.0, (110.0 + 10.0 * k) - sim.now)
                procs.append(sim.process(issue(k)))
            for k in range(5):
                yield max(0.0, (410.0 + 10.0 * k) - sim.now)
                procs.append(sim.process(issue(5 + k)))
            yield sim.all_of(procs)
            return outs

        outs = session.run(scenario)
        assert len(outs) == 10
        completed = sum(1 for o in outs if o.ok)
        assert completed / len(outs) >= 0.95
        # The work was genuinely issued during outages: petitions
        # queued under supervision instead of failing outright.
        assert any(o.waited_s > 0 for o in outs)
