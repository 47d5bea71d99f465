"""Control-plane probes start no kernel process.

A SWIM probe round, a client's broker-failover check and a standby's
watch tick each only wait on the network, so they run inline in their
loop with ``yield from``.  These tests count ``Simulator.process``
calls over steady-state rounds, healthy and failing, and expect none
beyond the ping-req relays that message handlers start on purpose
(a relay runs beside the handler that received the request).
"""

from __future__ import annotations

import inspect
from typing import List

from repro.experiments.scenario import ExperimentConfig, Session
from repro.gossip.swim import SwimAgent
from repro.overlay.broker import Broker
from repro.recovery import RecoveryConfig
from repro.recovery.standby import FailoverDirector
from repro.simnet.kernel import Simulator

from tests.gossip.test_swim import _mesh
from tests.overlay.test_failover import cluster  # noqa: F401 - fixture


def _run_for(sim: Simulator, seconds: float) -> None:
    # ``sim.run`` itself, not a clock process: it must not be counted.
    sim.run(until=sim.now + seconds)


class _Started:
    """Records the generator of every process started on ``sim``."""

    def __init__(self, monkeypatch, sim: Simulator) -> None:
        self.names: List[str] = []
        real = sim.process

        def process(generator, name=""):
            self.names.append(generator.__qualname__)
            return real(generator, name)

        monkeypatch.setattr(sim, "process", process)


def _count_calls(monkeypatch, cls, attr: str) -> List[int]:
    """Count calls of a method; a generator method stays a generator."""
    calls = [0]
    real = getattr(cls, attr)

    if inspect.isgeneratorfunction(real):
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return (yield from real(self, *args, **kwargs))
    else:
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)
    return calls


class TestSwimProbeRounds:
    def test_rounds_start_no_process(self, monkeypatch):
        sim, net, peers, agents = _mesh(4)
        # p0 and p1 cannot reach each other directly, so their probes
        # of each other fall back to ping-req through p2 and p3.
        net.add_partition([peers[0].host.hostname], [peers[1].host.hostname])
        for agent in agents:
            agent.start()
        _run_for(sim, 30.0)  # past every agent's start stagger
        rounds = _count_calls(monkeypatch, SwimAgent, "_probe_round")
        indirect = _count_calls(monkeypatch, SwimAgent, "_pick_proxies")
        started = _Started(monkeypatch, sim)
        _run_for(sim, 200.0)
        assert rounds[0] >= 4 * 19
        assert indirect[0] > 0
        # The only processes are ping-req relays, one per proxy asked.
        assert set(started.names) <= {"SwimAgent._proxy_probe"}
        assert len(started.names) == 2 * indirect[0]
        for agent in agents:
            assert agent.suspect_events == 0


class TestClientFailoverChecks:
    def test_healthy_checks_start_no_process(self, cluster, monkeypatch):
        sim, a, b, client = cluster
        client.enable_failover([b.advertisement()], check_interval_s=10.0)
        _run_for(sim, 5.0)
        pings = _count_calls(monkeypatch, type(client), "ping_broker")
        started = _Started(monkeypatch, sim)
        _run_for(sim, 100.0)
        assert pings[0] == 10
        assert started.names == []
        assert client.broker_adv.peer_id == a.peer_id

    def test_failed_checks_start_no_process(self, cluster, monkeypatch):
        # The broker is down and there is no backup, so every check
        # misses and no rehome is tried (a rehome's ``connect`` is a
        # process of its own).
        sim, a, _b, client = cluster
        client.enable_failover([], check_interval_s=60.0)
        _run_for(sim, 5.0)
        a.host.crash()
        pings = _count_calls(monkeypatch, type(client), "ping_broker")
        started = _Started(monkeypatch, sim)
        _run_for(sim, 600.0)
        # Each check waits 60 s, then its ping times out after 20 s.
        assert pings[0] == 7
        assert started.names == []
        assert client.broker_adv.peer_id == a.peer_id


class TestStandbyWatchTicks:
    def test_watch_ticks_start_no_process(self, cluster, monkeypatch):
        sim, a, b, _client = cluster
        config = RecoveryConfig(failover_miss_threshold=4)
        director = FailoverDirector(a, b, config)
        director.start()
        _run_for(sim, 5.0)
        pings = _count_calls(monkeypatch, Broker, "ping")
        started = _Started(monkeypatch, sim)
        _run_for(sim, 10 * config.failover_check_interval_s)
        assert pings[0] == 10
        # Then the primary dies: missed probes, but no promotion yet.
        a.host.crash()
        _run_for(sim, 3 * config.failover_check_interval_s)
        assert pings[0] == 12
        assert director.suspected_at is not None and not director.promoted
        assert started.names == []

    def test_recovery_session_steady_state_starts_no_process(self, monkeypatch):
        # A whole recovery deployment: every client's failover check
        # and the standby's watch, over ten check intervals.
        session = Session(ExperimentConfig(seed=21, recovery=RecoveryConfig()))
        interval = RecoveryConfig().failover_check_interval_s

        def scenario(session):
            started = _Started(monkeypatch, session.sim)
            yield 10 * interval
            return started.names

        assert session.run(scenario) == []
