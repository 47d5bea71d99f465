"""A download abandoned mid-run must stay silent when collected.

Experiments stop waiting at a run deadline and drop the session with
swarm workers still suspended.  The garbage collector later closes
those generators at a moment set by allocation, not by simulated time,
so a worker that sent a message from its cleanup would make message
counts (and any metric fed by them) depend on memory layout.
"""

from __future__ import annotations

import gc

from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.topology import NodeSpec, Region, Site, Topology
from repro.simnet.transport import Host, Network
from repro.swarm import SwarmCoordinator, SwarmSource
from repro.units import mbit

from tests.conftest import connect


def _abandon_mid_download() -> None:
    site = Site(name="lab", region=Region("eu"))
    topo = Topology()
    for i in range(4):
        topo.add_node(NodeSpec(hostname=f"h{i}.example", site=site, up_bps=2e6, down_bps=2e6))
    topo.set_region_rtt("eu", "eu", 0.02)
    sim = Simulator()
    net = Network(sim, topo, streams=RandomStreams(seed=5))
    ids = IdFactory()
    broker = Broker(net, "h0.example", ids, name="broker")
    dest = SimpleClient(net, "h1.example", ids, name="dest")
    replicas = [SimpleClient(net, f"h{i}.example", ids, name=f"src{i}") for i in (2, 3)]
    connect(sim, broker, dest, *replicas)
    sources = [SwarmSource(broker)] + [SwarmSource(node) for node in replicas]
    coord = SwarmCoordinator(
        net,
        dest.advertisement(),
        filename="abandoned",
        total_bits=mbit(2) * 8,
        n_parts=8,
        select=lambda needed, exclude: [s for s in sources if s.name not in exclude][:needed],
        k=3,
    )
    sim.process(coord.download())
    # Run until every source has a transfer open, then walk away, as a
    # run deadline does.
    sim.run(until=sim.now + 3.0)
    assert coord.outcome.requests and not coord.outcome.ok


def test_collected_workers_send_nothing(monkeypatch):
    gc.collect()
    gc.disable()
    try:
        _abandon_mid_download()
        sends = []
        monkeypatch.setattr(Host, "send", lambda self, *args, **kwargs: sends.append(args))
        gc.collect()
    finally:
        gc.enable()
    assert sends == []
