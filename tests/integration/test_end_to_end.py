"""End-to-end integration tests over the calibrated testbed."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ExperimentConfig, Session
from repro.selection.base import SelectionContext, Workload
from repro.selection.evaluator import DataEvaluatorSelector
from repro.selection.preference import PreferenceTable, UserPreferenceSelector
from repro.selection.scheduling import SchedulingBasedSelector
from repro.units import mbit


@pytest.fixture
def session():
    return Session(ExperimentConfig(seed=99))


class TestFullStack:
    def test_transfer_then_select_then_task(self, session):
        """A realistic application flow: probe all peers, pick one with
        each selection model, and run a processing task there."""

        def scenario(s):
            broker = s.broker
            # 1. Probe transfers build history.
            for label in s.sc_labels():
                yield s.sim.process(
                    broker.transfers.send_file(
                        s.client(label).advertisement(), f"probe-{label}", mbit(5)
                    )
                )
            # 2. Each model picks a peer.
            ctx = SelectionContext(
                broker=broker,
                now=s.sim.now,
                workload=Workload(transfer_bits=mbit(20), ops=60.0),
                candidates=broker.candidates(),
            )
            eco = SchedulingBasedSelector(reserve=False).select(ctx)
            ev = DataEvaluatorSelector("same_priority").select(ctx)
            table = PreferenceTable.quick_peer(broker.observed, 0.0, s.sim.now)
            quick = UserPreferenceSelector(table).select(ctx)
            # 3. Run the task on the economic pick.
            outcome = yield s.sim.process(
                broker.tasks.submit(
                    eco.adv, "process", ops=60.0, input_bits=mbit(20),
                    input_parts=4,
                )
            )
            return eco, ev, quick, outcome

        eco, ev, quick, outcome = session.run(scenario)
        assert outcome.ok
        # No informed selector should land on the straggler SC7.
        assert eco.adv.name != "SC7"
        assert quick.adv.name == "SC2"  # remembered-quickest peer

    def test_statistics_flow_to_broker(self, session):
        def scenario(s):
            yield s.sim.process(
                s.broker.transfers.send_file(
                    s.client("SC4").advertisement(), "f", mbit(10), n_parts=2
                )
            )
            # Let keepalives/stat reports land.
            yield 130.0
            return s.broker.record(s.client("SC4").peer_id)

        rec = session.run(scenario)
        assert rec.snapshot  # stat report arrived
        assert rec.perf.transfer_obs  # broker observed goodput
        assert rec.interaction.total.files_sent_ok == 1

    def test_blind_vs_informed_shootout(self, session):
        """Selecting with the economic model beats always hitting the
        straggler — the paper's core claim, end to end."""

        def scenario(s):
            broker = s.broker
            # History for everyone.
            for label in s.sc_labels():
                yield s.sim.process(
                    broker.transfers.send_file(
                        s.client(label).advertisement(), f"w-{label}", mbit(5)
                    )
                )
            ctx = SelectionContext(
                broker=broker,
                now=s.sim.now,
                workload=Workload(transfer_bits=mbit(30)),
                candidates=broker.candidates(),
            )
            pick = SchedulingBasedSelector(reserve=False).select(ctx)
            good = yield s.sim.process(
                broker.transfers.send_file(pick.adv, "good", mbit(30), n_parts=4)
            )
            bad = yield s.sim.process(
                broker.transfers.send_file(
                    s.client("SC7").advertisement(), "bad", mbit(30), n_parts=4
                )
            )
            return good.transmission_time, bad.transmission_time

        good_t, bad_t = session.run(scenario)
        assert good_t < bad_t

    def test_deterministic_replay(self):
        """Two sessions with identical config produce identical results."""

        def scenario(s):
            outcome = yield s.sim.process(
                s.broker.transfers.send_file(
                    s.client("SC5").advertisement(), "f", mbit(20), n_parts=4
                )
            )
            return (outcome.petition_time, outcome.transmission_time)

        a = Session(ExperimentConfig(seed=31)).run(scenario)
        b = Session(ExperimentConfig(seed=31)).run(scenario)
        assert a == b
