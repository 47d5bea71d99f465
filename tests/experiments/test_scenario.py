"""Tests for experiment scenario wiring."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments.scenario import ExperimentConfig, Session


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.repetitions == 5  # the paper repeats 5 times

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(flow_tick=0.0)

    def test_for_repetition_derives_seed(self):
        cfg = ExperimentConfig(seed=5, repetitions=3)
        seeds = {cfg.for_repetition(i).seed for i in range(3)}
        assert len(seeds) == 3
        assert 5 not in seeds

    def test_for_repetition_range_checked(self):
        cfg = ExperimentConfig(repetitions=2)
        with pytest.raises(ConfigError):
            cfg.for_repetition(2)


class TestSession:
    def test_wires_broker_and_eight_clients(self):
        session = Session(ExperimentConfig())
        assert session.broker.host.hostname == "nozomi.lsi.upc.edu"
        assert len(session.clients) == 8
        assert session.sc_labels() == tuple(f"SC{i}" for i in range(1, 9))

    def test_run_connects_everyone(self):
        session = Session(ExperimentConfig())

        def scenario(s):
            yield 0.0
            return len(s.candidates())

        n = session.run(scenario)
        assert n == 8
        assert all(c.online for c in session.clients.values())

    def test_run_returns_scenario_value(self):
        session = Session(ExperimentConfig())

        def scenario(s):
            yield 1.0
            return "payload"

        assert session.run(scenario) == "payload"

    def test_client_lookup(self):
        session = Session(ExperimentConfig())
        assert session.client("SC7").host.hostname == "planetlab1.itwm.fhg.de"

    def test_sessions_independent(self):
        a = Session(ExperimentConfig(seed=1))
        b = Session(ExperimentConfig(seed=1))
        assert a.broker is not b.broker
        assert a.sim is not b.sim


class TestConfigPersistence:
    def test_roundtrip(self, tmp_path):
        from repro.overlay.peer import PeerConfig

        cfg = ExperimentConfig(
            seed=99,
            repetitions=3,
            include_full_slice=True,
            peer_config=PeerConfig(petition_timeout_s=42.0),
        )
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg

    def test_roundtrip_without_peer_config(self, tmp_path):
        cfg = ExperimentConfig(seed=7)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_unknown_keys_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "warp_factor": 9})

    def test_unknown_peer_config_key_rejected(self):
        # A saved config that still carries a removed PeerConfig field.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="keepalive_enabled"):
            ExperimentConfig.from_dict(
                {"seed": 1, "peer_config": {"keepalive_enabled": False}}
            )

    def test_invalid_values_still_validated(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"repetitions": 0})


class TestSessionObservability:
    def test_session_picks_up_installed_registry(self):
        from repro.obs import MetricsRegistry, use_registry

        reg = MetricsRegistry()
        with use_registry(reg):
            session = Session(ExperimentConfig())
            assert session.metrics is reg
            assert session.sim.metrics is reg

            def scenario(s):
                yield 1.0

            session.run(scenario)
        # run() flushes kernel counters into the registry on exit.
        assert reg.counter("kernel.events_processed").value > 0
        assert reg.gauge("kernel.sim_time_s").value == session.sim.now

    def test_default_session_uses_null_registry(self):
        session = Session(ExperimentConfig())
        assert not session.metrics.enabled

    def test_bounded_trace_config(self):
        from repro.obs.trace import EventTrace

        session = Session(ExperimentConfig(trace=True, trace_capacity=16))
        assert isinstance(session.tracer, EventTrace)
        assert session.tracer.capacity == 16

        def scenario(s):
            yield 1.0

        session.run(scenario)
        assert session.tracer.seen > 0
        assert len(session.tracer) <= 16

    def test_trace_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trace_capacity=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(trace_policy="lifo")


class TestSelectorFactory:
    def test_every_model_has_a_selector(self):
        from repro.selection.blind import RoundRobinSelector
        from repro.selection.evaluator import DataEvaluatorSelector
        from repro.selection.preference import UserPreferenceSelector
        from repro.selection.scheduling import SchedulingBasedSelector

        session = Session(ExperimentConfig())
        expected = {
            "blind": RoundRobinSelector,
            "economic": SchedulingBasedSelector,
            "same_priority": DataEvaluatorSelector,
            "quick_peer": UserPreferenceSelector,
        }
        for model, cls in expected.items():
            assert type(session.selector(model, "test")) is cls, model
        assert session.selector("economic", "test", reserve=False).reserve is False
        with pytest.raises(ValueError):
            session.selector("mystery", "test")

    def test_budget_gives_the_degraded_variants(self):
        from repro.recovery.degraded import (
            StalenessAwareEvaluator,
            StalenessAwareScheduler,
        )
        from repro.selection.blind import RoundRobinSelector

        session = Session(ExperimentConfig())
        assert isinstance(
            session.selector("economic", "test", budget_s=60.0),
            StalenessAwareScheduler,
        )
        assert isinstance(
            session.selector("same_priority", "test", budget_s=60.0),
            StalenessAwareEvaluator,
        )
        # Blind placement reads no statistics: nothing to go stale.
        assert type(session.selector("blind", "test", budget_s=60.0)) is (
            RoundRobinSelector
        )

    def test_evaluator_ties_come_from_the_study_stream(self):
        session = Session(ExperimentConfig())
        selector = session.selector("same_priority", "fig6")
        assert selector._tiebreak_rng is session.streams.get(
            "fig6/evaluator-ties"
        )


class TestBringUp:
    def test_in_waves_bounds_concurrency(self):
        from repro.experiments.scenario import in_waves
        from repro.simnet.kernel import Simulator
        from tests.conftest import run_process

        sim = Simulator()
        started = []

        def job():
            started.append(sim.now)
            yield 1.0

        run_process(sim, in_waves(sim, (job() for _ in range(5)), 2))
        assert started == [0.0, 0.0, 1.0, 1.0, 2.0]

    def _run(self, config, wave):
        from repro.obs import MetricsRegistry, use_registry
        from repro.simnet.planetlab import synthetic_hostnames

        with use_registry(MetricsRegistry()) as reg:
            session = Session(config)

            def scenario(s):
                peers = s.add_clients(synthetic_hostnames(4))
                yield from s.bring_up(peers, wave=wave)
                yield 120.0
                return peers

            peers = session.run(scenario)
        return session, peers, reg.to_dict()["counters"]

    def test_legacy_join_connects_and_starts_the_loops(self):
        from repro.overlay.peer import PeerConfig

        peer_config = PeerConfig(petition_timeout_s=40.0)
        config = ExperimentConfig(synthetic_nodes=4, peer_config=peer_config)
        session, peers, counters = self._run(config, wave=3)
        assert all(p.online and p.config == peer_config for p in peers)
        names = {rec.adv.name for rec in session.candidates()}
        assert {p.name for p in peers} <= names
        assert counters["broker.keepalives"] > 0
        assert counters["broker.stat_reports"] > 0

    def test_federated_join_enrols_without_beacons(self):
        from repro.gossip.config import GossipConfig

        config = ExperimentConfig(
            synthetic_nodes=4, gossip=GossipConfig(), federation_brokers=3
        )
        session, peers, counters = self._run(config, wave=2)
        assert all(p.online for p in peers)
        fed = session.federation
        assert {p.name for p in peers} <= set(fed.peers)
        assert {p.name for p in peers} <= set(fed.agents)  # gossip started
        assert counters.get("broker.keepalives", 0) == 0
        assert counters.get("broker.stat_reports", 0) == 0
