"""Tests for the repetition runner."""

from __future__ import annotations

import pytest

from repro.experiments.runner import average_rows, run_repetitions
from repro.experiments.scenario import ExperimentConfig


class TestRunRepetitions:
    def test_runs_once_per_repetition(self):
        cfg = ExperimentConfig(repetitions=3)

        def scenario(session):
            yield 0.0
            return session.config.seed

        results = run_repetitions(cfg, scenario)
        assert len(results) == 3
        assert len(set(results)) == 3  # distinct derived seeds

    def test_repetitions_statistically_independent(self):
        cfg = ExperimentConfig(repetitions=2)

        def scenario(session):
            outcome = yield session.sim.process(
                session.broker.transfers.send_file(
                    session.client("SC4").advertisement(), "f", 1e6
                )
            )
            return outcome.petition_time

        a, b = run_repetitions(cfg, scenario)
        assert a != b  # different jitter draws per repetition


class TestAverageRows:
    def test_per_key_summaries(self):
        rows = [{"x": 1.0, "y": 4.0}, {"x": 3.0, "y": 6.0}]
        out = average_rows(rows)
        assert out["x"].mean == pytest.approx(2.0)
        assert out["y"].mean == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_rows([])

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            average_rows([{"x": 1.0}, {"y": 2.0}])


class TestWarmupProbe:
    def _probe(self, deadline_s):
        from repro.experiments.runner import warmup_probe
        from repro.experiments.scenario import Session

        session = Session(ExperimentConfig())

        def scenario(s):
            adv = s.client("SC4").advertisement()
            yield from warmup_probe(s, adv, "probe", 4e6, 4, deadline_s)

        session.run(scenario)
        rec = next(
            r for r in session.broker.candidates() if r.adv.name == "SC4"
        )
        return rec

    def test_probe_within_deadline_completes(self):
        rec = self._probe(deadline_s=1e6)
        assert rec.interaction.total.transfers_cancelled == 0
        assert rec.perf.estimated_transfer_bps(0.0) > 0

    def test_probe_past_deadline_is_cancelled(self):
        # The first part always goes out; the deadline stops the rest.
        rec = self._probe(deadline_s=0.0)
        assert rec.interaction.total.transfers_cancelled == 1


class TestSupervised:
    def _supervise(self, delay, value, abort=False):
        from repro.experiments.runner import supervised
        from repro.simnet.kernel import Simulator
        from tests.conftest import run_process

        sim = Simulator()
        stopped = []

        def job():
            yield delay
            return value

        def go():
            proc = sim.process(job())
            result = yield from supervised(
                sim,
                proc,
                10.0,
                ok=lambda v: v == "good",
                abort=(lambda: stopped.append(sim.now)) if abort else None,
            )
            return result, sim.now

        return run_process(sim, go()), stopped

    def test_in_time_and_ok_is_completed(self):
        (result, now), _ = self._supervise(1.0, "good")
        assert result == ("completed", "good")
        assert now == 1.0

    def test_in_time_and_not_ok_is_aborted(self):
        (result, _now), _ = self._supervise(1.0, "bad")
        assert result == ("aborted", "bad")

    def test_past_the_deadline_is_censored_and_left_running(self):
        (result, now), stopped = self._supervise(50.0, "good")
        assert result == ("censored", None)
        assert now == 10.0
        assert stopped == []

    def test_abort_stops_and_awaits_a_censored_attempt(self):
        (result, now), stopped = self._supervise(50.0, "good", abort=True)
        # Abort is told at the deadline; the value is what the process
        # finally returned.
        assert stopped == [10.0]
        assert result == ("censored", "good")
        assert now == 50.0
