"""Tests for SimpleClient / Client specifics."""

from __future__ import annotations

from repro.overlay.client import Client, SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.transport import Network


class TestKinds:
    def test_simpleclient_kind(self, sim, streams, two_node_topology):
        net = Network(sim, two_node_topology, streams=streams)
        sc = SimpleClient(net, "b.example", IdFactory(), name="sc")
        assert sc.kind == "simpleclient"
        assert sc.advertisement().kind == "simpleclient"

    def test_client_kind(self, sim, streams, two_node_topology):
        net = Network(sim, two_node_topology, streams=streams)
        c = Client(net, "b.example", IdFactory(), name="gui")
        assert c.kind == "client"
        assert c.advertisement().kind == "client"


class TestClientsExcludedFromSelection:
    def test_broker_candidates_skip_gui_clients(self, sim, streams, two_node_topology):
        from repro.overlay.broker import Broker
        from tests.conftest import connect

        net = Network(sim, two_node_topology, streams=streams)
        ids = IdFactory()
        broker = Broker(net, "a.example", ids, name="hub")
        gui = Client(net, "b.example", ids, name="gui")
        connect(sim, broker, gui)
        # "simpleclient" candidates exclude GUI clients; they are
        # selectable only when asked for explicitly.
        assert broker.candidates(kind="simpleclient") == []
        assert [r.adv.name for r in broker.candidates(kind="client")] == ["gui"]
