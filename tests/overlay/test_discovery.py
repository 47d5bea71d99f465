"""Tests for the client-side discovery service."""

from __future__ import annotations

import pytest

from repro.errors import NotConnectedError
from repro.overlay.advertisements import ResourceAdvertisement

from tests.conftest import connect, run_process


class TestPublish:
    def test_publish_requires_broker(self, overlay_pair):
        broker, client, net = overlay_pair
        adv = ResourceAdvertisement(
            published_at=0.0, peer_id=client.peer_id, kind="file", name="x"
        )
        with pytest.raises(NotConnectedError):
            client.discovery.publish(adv)

    def test_query_requires_broker(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        p = sim.process(client.discovery.query("peer"))
        with pytest.raises(NotConnectedError):
            sim.run(until=p)


class TestQueryAndCache:
    def test_query_populates_cache_and_directory(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        advs = run_process(sim, client.discovery.query("peer"))
        assert advs
        assert client.discovery.cached("peer")
        # Directory learned the discovered peers.
        for adv in advs:
            assert client.directory[adv.peer_id] == adv.hostname

    def test_broker_discovers_registered_peers(self, overlay_pair, sim):
        # The broker's own queries loop back through its index.
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        advs = run_process(sim, broker.discovery.query("peer"))
        assert any(a.peer_id == client.peer_id for a in advs)

    def test_cache_deduplicates(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(sim, client.discovery.query("peer"))
        first = len(client.discovery.cached("peer"))
        run_process(sim, client.discovery.query("peer"))
        assert len(client.discovery.cached("peer")) == first

    def test_cached_drops_expired(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        adv = ResourceAdvertisement(
            published_at=sim.now,
            lifetime_s=2.0,
            peer_id=client.peer_id,
            kind="file",
            name="ephemeral",
        )
        client.discovery.publish(adv)
        sim.run(until=sim.now + 1.0)
        run_process(sim, client.discovery.query("resource"))
        assert client.discovery.cached("resource")
        sim.run(until=sim.now + 5.0)
        assert client.discovery.cached("resource") == ()

    def test_flush_expired_counts(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        adv = ResourceAdvertisement(
            published_at=sim.now,
            lifetime_s=1.0,
            peer_id=client.peer_id,
            kind="file",
            name="gone",
        )
        client.discovery.publish(adv)
        sim.run(until=sim.now + 0.5)
        run_process(sim, client.discovery.query("resource"))
        sim.run(until=sim.now + 5.0)
        assert client.discovery.flush_expired() == 1
