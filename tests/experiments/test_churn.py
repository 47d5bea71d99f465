"""Tests for the churn extension experiment."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, churn


class TestChurnRun:
    @pytest.fixture(scope="class")
    def result(self):
        return churn.run(ExperimentConfig(seed=2007, repetitions=3))

    def test_all_policies_measured(self, result):
        for policy in churn.POLICIES:
            assert 0.0 <= result.completion_rate(policy) <= 1.0

    def test_informed_beats_blind(self, result):
        assert result.completion_rate("economic") > result.completion_rate("blind")
        assert result.completion_rate("same_priority") >= result.completion_rate(
            "blind"
        )

    def test_informed_mostly_completes(self, result):
        assert result.completion_rate("economic") >= 0.9

    def test_counts_conserved(self, result):
        for policy in churn.POLICIES:
            total = result.completed(policy) + result.aborted(policy)
            assert total == pytest.approx(churn.N_TRANSFERS)

    def test_table_renders(self, result):
        out = result.table()
        assert "completion rate" in out and "blind" in out


class TestUnansweredControlMessages:
    def test_request_timeout_counts_as_aborted(self):
        """Repetition 4 at seed 2007 sends a PartNotice to a peer that
        goes down mid-transfer; the unanswered request must count as an
        aborted transfer, not crash the repetition."""
        result = churn.run(ExperimentConfig(seed=2007, repetitions=5))
        for policy in churn.POLICIES:
            total = result.completed(policy) + result.aborted(policy)
            assert total == pytest.approx(churn.N_TRANSFERS)


class TestLivenessFilter:
    def test_stale_peers_dropped_from_candidates(self):
        from repro.experiments.scenario import Session

        session = Session(ExperimentConfig(seed=31))

        def scenario(s):
            yield 1.0
            all_cands = s.broker.candidates()
            # Freeze one peer's keepalives by crashing its host, then
            # let the liveness window lapse.
            s.client("SC3").host.crash()
            yield 200.0
            live = s.broker.candidates(liveness_timeout_s=90.0)
            return len(all_cands), {r.adv.name for r in live}

        n_all, live_names = session.run(scenario)
        assert n_all == 8
        assert "SC3" not in live_names
        assert len(live_names) == 7
