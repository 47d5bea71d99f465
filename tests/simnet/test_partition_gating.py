"""Partition-aware flow gating: opt-in pinning of cut flows.

Legacy semantics (pinned by other suites): bulk flows stream straight
through partitions — only unit messages are dropped.  With
``enable_flow_partition_gating()`` a flow whose endpoints straddle an
active cut is held at rate zero, ``resample()`` never re-activates it
mid-cut, and healing the cut releases it immediately.
"""

from __future__ import annotations

from repro.experiments.scenario import ExperimentConfig, Session
from repro.recovery import RecoveryConfig


def _hostnames(session, *labels):
    return [session.testbed.sc_hostname(label) for label in labels]


def _send(session, src_label, dst_label, bits=80e6):
    def scenario(s):
        src = s.client(src_label)
        dst = s.client(dst_label)
        outcome = yield s.sim.process(
            src.transfers.send_file(
                dst.advertisement(), "gate.bin", bits, n_parts=16
            )
        )
        return outcome

    return scenario


class TestGatingOff:
    def test_legacy_flows_stream_through_partitions(self):
        session = Session(ExperimentConfig(seed=61, repetitions=1))
        assert session.network._flow_gating is False

        def scenario(s):
            net = s.network
            a, b = _hostnames(s, "SC1", "SC2")
            proc = s.sim.process(_send(s, "SC1", "SC2")(s))
            yield 5.0
            token = net.add_partition([a], [b])
            flows = [
                f
                for f in net.flows._flows
                if {f.src.hostname, f.dst.hostname} == {a, b}
            ]
            assert flows and all(f.rate > 0 for f in flows)
            net.remove_partition(token)
            outcome = yield proc
            return outcome

        outcome = session.run(scenario)
        assert outcome.ok


class TestGatingOn:
    def _session(self):
        # Any recovery config switches gating on.
        return Session(
            ExperimentConfig(
                seed=61, repetitions=1, recovery=RecoveryConfig()
            )
        )

    def test_cut_flow_pinned_at_zero_and_released(self):
        session = self._session()
        assert session.network._flow_gating is True

        def scenario(s):
            net = s.network
            a, b = _hostnames(s, "SC1", "SC2")
            proc = s.sim.process(_send(s, "SC1", "SC2")(s))
            yield 5.0

            def cut_flows():
                return [
                    f
                    for f in net.flows._flows
                    if {f.src.hostname, f.dst.hostname} == {a, b}
                ]

            assert cut_flows() and all(f.rate > 0 for f in cut_flows())
            token = net.add_partition([a], [b])
            assert all(f.rate == 0 for f in cut_flows())
            # A resample mid-cut must not re-activate the dead flow.
            net.flows.resample()
            assert all(f.rate == 0 for f in cut_flows())
            yield 30.0
            assert all(f.rate == 0 for f in cut_flows())
            net.remove_partition(token)
            assert all(f.rate > 0 for f in cut_flows())
            outcome = yield proc
            return outcome

        outcome = session.run(scenario)
        assert outcome.ok

    def test_unrelated_flows_unaffected_by_cut(self):
        session = self._session()

        def scenario(s):
            net = s.network
            a, b = _hostnames(s, "SC1", "SC2")
            proc_cut = s.sim.process(_send(s, "SC1", "SC2")(s))
            proc_free = s.sim.process(_send(s, "SC3", "SC5")(s))
            yield 5.0
            token = net.add_partition([a], [b])
            # The free pair may sit between parts at any one instant;
            # sample until its next part flow is live under the cut.
            free = []
            for _ in range(200):
                free = [
                    f
                    for f in net.flows._flows
                    if f.src.hostname not in (a, b)
                    and f.dst.hostname not in (a, b)
                ]
                if free:
                    break
                yield 0.2
            assert free and all(f.rate > 0 for f in free)
            net.remove_partition(token)
            out_a = yield proc_cut
            out_b = yield proc_free
            return out_a, out_b

        out_a, out_b = session.run(scenario)
        assert out_a.ok and out_b.ok

    def test_partition_isolating_endpoints_is_safe_at_scale(self):
        # resample() with every flow gated must not stall or divide by
        # zero — the scheduler simply parks until the cut heals.
        session = self._session()

        def scenario(s):
            net = s.network
            a, b = _hostnames(s, "SC1", "SC2")
            proc = s.sim.process(_send(s, "SC1", "SC2", bits=20e6)(s))
            yield 5.0
            token = net.add_partition([a], [b])
            for _ in range(3):
                net.flows.resample()
                yield 10.0
            assert net.flows.active_flows >= 1
            net.remove_partition(token)
            outcome = yield proc
            return outcome

        outcome = session.run(scenario)
        assert outcome.ok
        assert session.network.flows.active_flows == 0

    def test_gating_is_idempotent(self):
        session = self._session()
        session.network.enable_flow_partition_gating()
        session.network.enable_flow_partition_gating()
        assert session.network._flow_gating is True
