"""Client peers.

JXTA-Overlay distinguishes *SimpleClient* (edge peer without GUI — the
kind used as SC1..SC8 in the paper's experiments) from *Client* (edge
peer with GUI).  Behaviourally they are the same protocol endpoint; the
Client additionally keeps a small UI event feed that a front-end would
render.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import HostDownError, NotConnectedError
from repro.overlay.peer import PeerConfig, PeerNode, RequestTimeout
from repro.simnet.kernel import Store
from repro.simnet.transport import Network
from repro.overlay.ids import IdFactory

__all__ = ["SimpleClient", "Client"]


class SimpleClient(PeerNode):
    """Edge peer without GUI — the paper's SC nodes."""

    kind = "simpleclient"

    def join_federated(self, shard_map, broker_advs: Sequence, rejoin: bool = False):
        """Generator process: join a sharded federation.

        Walks from the map's opinion of our shard owner, following
        wrong-shard redirects (which carry the refusing broker's
        fresher map — the stale-shard-map retry path) and skipping
        brokers our gossip view believes dead.  Adopts every fresher
        map seen along the walk into ``self.shard_map``.  Unlike
        :meth:`connect` it starts no keepalive or stat-report loop: SWIM
        probes and event-driven notifies are the federation's liveness
        source.  Returns the accepting broker's advertisement; raises
        :class:`~repro.errors.NotConnectedError` when the attempt
        budget is exhausted.
        """
        from repro.gossip.config import GossipConfig
        from repro.gossip.shard import ShardMap, region_shard_key

        attempts = GossipConfig().join_attempts
        if self.gossip_agent is not None:
            attempts = self.gossip_agent.config.join_attempts
        self.shard_map = shard_map
        advs = {adv.hostname: adv for adv in broker_advs}
        key = region_shard_key(self.network, self.host.hostname)
        target = self.shard_map.owner_of(key)
        if rejoin:
            self.online = False
            if self.stats.session_active:
                self.stats.end_session()
        tried: dict = {}
        for _attempt in range(attempts):
            if self._believes_dead(target) or target in tried:
                target = self._next_untried_broker(tried, target)
                if target is None:
                    break
            adv = advs.get(target)
            if adv is None:
                tried[target] = True
                continue
            tried[target] = True
            try:
                ack = yield self.sim.process(
                    self.request(
                        self.network.host(target),
                        self._join_request(),
                        ("join", self.peer_id),
                        light=True,
                    )
                )
            except (RequestTimeout, HostDownError):
                continue
            if ack.accepted:
                self._finalize_join(adv, ack)
                if self.gossip_agent is not None:
                    self.gossip_agent.notify_hostname = target
                if rejoin:
                    # The old home's advertisement index died with it:
                    # relearn the new shard owner with what we share.
                    self.discovery.republish()
                return adv
            if ack.shard_map is not None:
                fresher = ShardMap.from_wire(*ack.shard_map)
                if fresher.version > self.shard_map.version:
                    self.shard_map = fresher
                    self._m_stale_retries.inc()
            if ack.redirect_hostname and ack.redirect_hostname not in tried:
                target = ack.redirect_hostname
            else:
                target = self.shard_map.owner_of(key)
        raise NotConnectedError(
            f"{self.name}: federated join failed after {attempts} attempts"
        )

    def _join_request(self):
        from repro.overlay.messages import JoinRequest

        return JoinRequest(
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )

    def _believes_dead(self, hostname: str) -> bool:
        agent = self.gossip_agent
        if agent is None:
            return False
        for state in agent.table.values():
            if state.hostname == hostname:
                return state.status == "dead"
        return False

    def _next_untried_broker(self, tried: dict, current: str):
        """First map broker not yet tried and not believed dead."""
        for hostname in self.shard_map.brokers:
            if hostname not in tried and not self._believes_dead(hostname):
                return hostname
        return None


class Client(SimpleClient):
    """Edge peer with GUI: adds a UI event feed."""

    kind = "client"

    def __init__(
        self,
        network: Network,
        hostname: str,
        ids: IdFactory,
        name: Optional[str] = None,
        config: Optional[PeerConfig] = None,
    ) -> None:
        super().__init__(network, hostname, ids, name=name, config=config)
        #: Events a GUI would render (joins, transfers, IMs).
        self.ui_feed: Store = Store(self.sim, name=f"ui@{self.name}")

    def notify_ui(self, event: str) -> None:
        """Append an event to the UI feed."""
        self.ui_feed.put((self.sim.now, event))
