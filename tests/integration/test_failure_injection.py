"""Failure-injection integration tests.

The overlay must degrade gracefully when peers crash, recover, or shed
load: petitions to dead peers time out and abort cleanly, transfers
survive transient receiver outages through retransmission, and the
statistics record the damage so selection avoids repeat offenders.
"""

from __future__ import annotations

import pytest

from repro.errors import TransferAborted
from repro.experiments.scenario import ExperimentConfig, Session
from repro.overlay.peer import PeerConfig
from repro.selection.base import SelectionContext, Workload
from repro.selection.evaluator import DataEvaluatorSelector
from repro.units import mbit


def fast_fail_config() -> PeerConfig:
    """Short timeouts so failure paths resolve quickly in tests."""
    return PeerConfig(
        petition_timeout_s=5.0,
        petition_retries=2,
        confirm_timeout_s=5.0,
        confirm_retries=2,
        request_timeout_s=5.0,
        request_retries=2,
    )


class TestCrashDuringProtocol:
    def test_petition_to_dead_peer_aborts(self):
        session = Session(ExperimentConfig(seed=5, peer_config=fast_fail_config()))

        def scenario(s):
            target = s.client("SC4")
            target.host.crash()
            with pytest.raises(TransferAborted):
                yield s.sim.process(
                    s.broker.transfers.send_file(
                        target.advertisement(), "doomed", mbit(5)
                    )
                )
            # The broker's statistics recorded the failure.
            assert s.broker.stats.total.transfers_cancelled == 1
            inter = s.broker.interaction_stats(target.host.hostname)
            assert inter.total.transfers_cancelled == 1
            assert inter.total.messages_ok == 0
            return None

        session.run(scenario)

    def test_crash_mid_transfer_then_abort(self):
        session = Session(ExperimentConfig(seed=6, peer_config=fast_fail_config()))

        def scenario(s):
            target = s.client("SC4")
            adv = target.advertisement()
            handle = yield s.sim.process(
                s.broker.transfers.open_transfer(adv, "f", mbit(10))
            )
            yield s.sim.process(handle.send_part(mbit(5)))
            target.host.crash()
            # The next part can never be confirmed: the bulk flow
            # completes but the receiver is gone.
            with pytest.raises(TransferAborted):
                yield s.sim.process(handle.send_part(mbit(5)))
            assert handle.closed
            return None

        session.run(scenario)

    def test_recovery_restores_service(self):
        session = Session(ExperimentConfig(seed=7, peer_config=fast_fail_config()))

        def scenario(s):
            target = s.client("SC4")
            adv = target.advertisement()
            target.host.crash()
            with pytest.raises(TransferAborted):
                yield s.sim.process(
                    s.broker.transfers.send_file(adv, "down", mbit(5))
                )
            target.host.recover()
            outcome = yield s.sim.process(
                s.broker.transfers.send_file(adv, "up", mbit(5))
            )
            assert outcome.ok
            return None

        session.run(scenario)


class TestFailureFeedsSelection:
    def test_evaluator_avoids_peer_having_failure_history(self):
        # Default timeouts: the warmup reaches slow-overhead peers
        # (SC1/SC7 petition handling exceeds the fast-fail timeout).
        session = Session(ExperimentConfig(seed=8))

        def scenario(s):
            broker = s.broker
            victim = s.client("SC4")
            # Clean history for everyone else.
            for label in s.sc_labels():
                if label == "SC4":
                    continue
                yield s.sim.process(
                    broker.transfers.send_file(
                        s.client(label).advertisement(), f"w-{label}", mbit(2)
                    )
                )
            # SC4 fails repeatedly while down.
            victim.host.crash()
            for k in range(2):
                try:
                    yield s.sim.process(
                        broker.transfers.send_file(
                            victim.advertisement(), f"fail-{k}", mbit(2)
                        )
                    )
                except TransferAborted:
                    pass
            victim.host.recover()
            selector = DataEvaluatorSelector("same_priority")
            ranked = selector.rank(
                SelectionContext(
                    broker=broker,
                    now=s.sim.now,
                    workload=Workload(transfer_bits=mbit(10)),
                    candidates=broker.candidates(),
                )
            )
            return [rc.record.adv.name for rc in ranked]

        names = session.run(scenario)
        assert names[-1] == "SC4"  # worst cost after its failure streak

    def test_task_failures_recorded_in_stats(self):
        session = Session(ExperimentConfig(seed=9))

        def scenario(s):
            executor = s.client("SC2")
            executor.tasks.failure_prob = 1.0
            outcome = yield s.sim.process(
                s.broker.tasks.submit(executor.advertisement(), "t", ops=5.0)
            )
            assert not outcome.ok
            snap = executor.stats.snapshot(s.sim.now)
            assert snap["pct_tasks_ok_session"] == 0.0
            return None

        session.run(scenario)
