"""The region-pair delay cache behind ``Host.send``.

``Topology.one_way_s`` memoises the base one-way delay per sorted
region pair.  It must always equal ``path(...).base_one_way_s``, follow
topology edits, keep self-sends at zero, reject unknown hosts and stay
bounded by the number of region pairs however many hosts talk.
"""

from __future__ import annotations

import pytest

from repro.errors import NoRouteError
from repro.simnet.kernel import Simulator
from repro.simnet.planetlab import build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.trace import Tracer
from repro.simnet.transport import Network

EU = Site(name="lab-eu", region=Region("eu"))
US = Site(name="lab-us", region=Region("us"))
ASIA = Site(name="lab-asia", region=Region("asia"))


def _node(hostname: str, site: Site) -> NodeSpec:
    # No overhead jitter, so a delivery time is the path delay plus a
    # fixed 10 ms receiver overhead.
    return NodeSpec(
        hostname=hostname, site=site, overhead_s=0.01, overhead_cv=0.0,
        load_min_share=1.0, load_max_share=1.0,
    )


@pytest.fixture
def topo() -> Topology:
    t = Topology()
    t.add_nodes([_node("a", EU), _node("b", US), _node("c", EU)])
    t.set_region_rtt("eu", "us", 0.1)
    t.set_region_rtt("eu", "eu", 0.02)
    t.set_region_rtt("us", "us", 0.04)
    return t


def _delivery_delay(topo: Topology, src: str, dst: str) -> float:
    """Simulated seconds a datagram takes from ``src`` to ``dst``."""
    sim = Simulator()
    net = Network(sim, topo, streams=RandomStreams(seed=1), tracer=Tracer())
    net.host(src).send(net.host(dst), "ping")
    sim.run()
    (recv,) = net.tracer.of_kind("msg-recv")
    return recv.get("latency")


class TestOneWay:
    def test_matches_path_both_directions(self, topo):
        for src in ("a", "b", "c"):
            for dst in ("a", "b", "c"):
                assert topo.one_way_s(src, dst) == topo.path(src, dst).base_one_way_s

    def test_follows_set_region_rtt(self, topo):
        assert topo.one_way_s("a", "b") == 0.05
        assert _delivery_delay(topo, "a", "b") == pytest.approx(0.05 + 0.01)
        topo.set_region_rtt("us", "eu", 0.5)
        assert topo.one_way_s("a", "b") == 0.25
        assert topo.one_way_s("b", "c") == 0.25
        assert _delivery_delay(topo, "a", "b") == pytest.approx(0.25 + 0.01)

    def test_follows_add_node(self, topo):
        topo.one_way_s("a", "b")
        assert topo._one_way
        topo.add_node(_node("d", ASIA))
        assert not topo._one_way
        with pytest.raises(NoRouteError):
            topo.one_way_s("a", "d")  # no eu-asia RTT configured yet
        topo.set_region_rtt("eu", "asia", 0.3)
        assert topo.one_way_s("d", "a") == 0.15
        assert _delivery_delay(topo, "d", "c") == pytest.approx(0.15 + 0.01)

    def test_default_rtt_covers_missing_pairs(self):
        t = Topology(default_rtt=0.08)
        t.add_nodes([_node("a", EU), _node("b", US)])
        assert t.one_way_s("a", "b") == 0.04

    def test_self_send_is_zero(self, topo):
        assert topo.one_way_s("a", "a") == 0.0
        assert not topo._one_way  # a self-send never touches the cache
        # Only the receiver's handling time remains.
        assert _delivery_delay(topo, "b", "b") == pytest.approx(0.01)

    @pytest.mark.parametrize("pair", [("a", "zz"), ("zz", "a"), ("zz", "yy")])
    def test_unknown_host_raises(self, topo, pair):
        with pytest.raises(NoRouteError, match="zz"):
            topo.one_way_s(*pair)


def test_all_pairs_sweep_keeps_one_entry_per_region_pair():
    testbed = build_testbed(synthetic_nodes=200 - len(build_testbed().topology))
    topo = testbed.topology
    assert len(topo) == 200
    sim = Simulator()
    net = Network(sim, topo, streams=RandomStreams(seed=3))
    hosts = net.boot_all()
    for src in hosts:
        for dst in hosts:
            src.send(dst, "sweep", light=True)
    assert topo._one_way
    regions = sorted({spec.site.region.name for spec in topo.nodes.values()})
    assert len(regions) > 1
    region_pairs = {(a, b) for a in regions for b in regions if a <= b}
    assert set(topo._one_way) <= region_pairs
    assert len(topo._one_way) <= len(regions) * (len(regions) + 1) // 2
    for src in hosts[:20]:
        for dst in hosts:
            one_way = topo.one_way_s(src.hostname, dst.hostname)
            assert one_way == topo.path(src.hostname, dst.hostname).base_one_way_s
