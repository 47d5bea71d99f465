"""Peer node base class.

A :class:`PeerNode` binds one simulated :class:`~repro.simnet.transport.Host`
into the overlay: identity, broker membership, request/reply plumbing
with timeouts and retries, local statistics, and the receiver sides of
the file-transfer and task-execution protocols.  SimpleClient/Client
subclasses live in :mod:`repro.overlay.client`; the Broker subclass in
:mod:`repro.overlay.broker`.

Request/reply correlation
-------------------------
The transport is fire-and-forget, so every conversation correlates
replies through *waiter keys* — e.g. ``("ack", transfer_id)`` or
``("task-result", task_id)``.  :meth:`PeerNode.request` implements the
generic retry loop: send, wait for the waiter or a timeout, resend up
to ``retries`` times, and record the attempt in the peer's message
statistics (feeding the §2.2 "percentage of successfully sent
messages" criteria).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import (
    HostDownError,
    NotConnectedError,
    OverlayError,
    UnknownPeerError,
)
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.ids import IdFactory, PeerId
from repro.overlay.messages import (
    DiscoveryResponse,
    FilePetition,
    GroupJoinAck,
    InstantMessage,
    JoinAck,
    JoinRequest,
    KeepAlive,
    LeaveNotice,
    Ping,
    Pong,
    PartConfirm,
    PartNotice,
    PetitionAck,
    PipeBindAck,
    PipeBindRequest,
    PipeMessage,
    StatReport,
    TaskAccept,
    TaskReject,
    TaskResult,
    TaskCancel,
    TaskSubmit,
    TransferCancel,
    TransferComplete,
)
from repro.overlay.statistics import PeerStats, PerformanceHistory
from repro.simnet.kernel import Event, Store
from repro.simnet.transport import Datagram, Host, Network

__all__ = ["PeerConfig", "PeerNode", "RequestTimeout"]


class RequestTimeout(OverlayError):
    """A request exhausted its retries without a reply."""


@dataclass
class PeerConfig:
    """Tunable protocol parameters for one peer."""

    #: Liveness beacon period (seconds).
    keepalive_interval_s: float = 30.0
    #: Statistics push period (seconds).
    stat_report_interval_s: float = 60.0
    #: Timeout for the file-transfer petition round.  Must exceed the
    #: slowest node's first-contact overhead (SC7 ~ 27 s).
    petition_timeout_s: float = 120.0
    petition_retries: int = 5
    #: Petition retry backoff: before resend ``n`` (n >= 1) the sender
    #: waits ``min(base * factor**(n-1), max) * (1 + jitter * U)``
    #: seconds, U uniform on [0, 1) from the sim RNG tree (substream
    #: ``backoff/<peer name>`` — deterministic per seed).  The default
    #: ``base = 0`` disables the wait, i.e. the original
    #: resend-immediately-on-timeout behaviour.
    petition_backoff_base_s: float = 0.0
    petition_backoff_factor: float = 2.0
    petition_backoff_max_s: float = 60.0
    petition_backoff_jitter: float = 0.25
    #: Timeout for per-part confirm rounds (light messages).
    confirm_timeout_s: float = 30.0
    confirm_retries: int = 5
    #: Generic request timeout (join, discovery, task submit).
    request_timeout_s: float = 120.0
    request_retries: int = 3
    #: Max queued + running tasks before the peer rejects submissions.
    task_queue_limit: int = 4
    #: Bulk-unit retry budget and stall-detection factor (see
    #: :meth:`repro.simnet.transport.Host.reliable_transfer`).
    bulk_max_attempts: int = 50
    bulk_loss_timeout_factor: float = 1.0
    #: Receiver-side I/O time to persist one received part:
    #: fixed seconds plus size / io_rate.
    part_io_fixed_s: float = 0.35
    part_io_bps: float = 200_000_000.0
    #: Window for "last k hours" statistics snapshots.
    last_k_hours: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "keepalive_interval_s",
            "stat_report_interval_s",
            "petition_timeout_s",
            "confirm_timeout_s",
            "request_timeout_s",
            "last_k_hours",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("petition_retries", "confirm_retries", "request_retries",
                     "bulk_max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.bulk_loss_timeout_factor < 0:
            raise ValueError("bulk_loss_timeout_factor must be >= 0")
        if self.petition_backoff_base_s < 0:
            raise ValueError("petition_backoff_base_s must be >= 0")
        if self.petition_backoff_factor < 1:
            raise ValueError("petition_backoff_factor must be >= 1")
        if self.petition_backoff_max_s <= 0:
            raise ValueError("petition_backoff_max_s must be > 0")
        if self.petition_backoff_jitter < 0:
            raise ValueError("petition_backoff_jitter must be >= 0")
        if self.task_queue_limit < 1:
            raise ValueError("task_queue_limit must be >= 1")
        if self.part_io_fixed_s < 0 or self.part_io_bps <= 0:
            raise ValueError("part I/O parameters out of range")


class PeerNode:
    """One overlay peer bound to a simulated host."""

    kind = "simpleclient"

    def __init__(
        self,
        network: Network,
        hostname: str,
        ids: IdFactory,
        name: Optional[str] = None,
        config: Optional[PeerConfig] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.host: Host = network.host(hostname)
        self.ids = ids
        self.peer_id: PeerId = ids.peer_id(hostname)
        self.name = name or hostname
        self.config = config or PeerConfig()

        #: Shared metrics registry (no-op unless one is installed).
        self.metrics = network.metrics
        self._m_inbox_len = self.metrics.histogram(
            "peer.inbox_len", bounds=(0, 1, 2, 5, 10, 20, 50, 100)
        )
        self._m_pending_transfers = self.metrics.histogram(
            "peer.pending_transfers", bounds=(0, 1, 2, 5, 10, 20, 50, 100)
        )
        self._m_pending_tasks = self.metrics.histogram(
            "peer.pending_tasks", bounds=(0, 1, 2, 5, 10, 20, 50, 100)
        )
        self._m_request_timeouts = self.metrics.counter("peer.request_timeouts")
        self._m_stale_retries = self.metrics.counter("gossip.stale_shard_retries")

        #: Local statistics (this peer's own accounting).
        self.stats = PeerStats()
        #: What this peer has observed about *other* peers, by PeerId.
        self.observed: Dict[PeerId, PerformanceHistory] = {}
        #: Per-destination interaction accounting (hostname-keyed):
        #: message/transfer outcomes of *this* peer's conversations with
        #: each remote — "historical data kept for the peergroup" when
        #: this peer is a broker.
        self.interactions: Dict[str, PeerStats] = {}
        #: PeerId -> hostname, learned from advertisements/messages.
        self.directory: Dict[PeerId, str] = {self.peer_id: hostname}
        #: Instant messages received (application inbox).
        self.im_inbox: Store = Store(self.sim, name=f"im@{self.name}")

        self.broker_adv: Optional[PeerAdvertisement] = None
        self.online = False
        #: Control-plane message count (gossip probes/acks/notifies and
        #: federation traffic handled by this peer).  A plain integer —
        #: registry-independent, so experiment rows stay deterministic.
        self.control_messages = 0
        #: SWIM agent, when the federation wires one (see repro.gossip).
        self.gossip_agent = None
        #: This peer's (possibly stale) copy of the federation shard
        #: map; None outside federations.
        self.shard_map = None

        self._waiters: Dict[Any, list[Event]] = {}
        self._next_query_id = 0
        self._wire_handlers()

        # Protocol services (imported lazily to avoid circular imports).
        from repro.overlay.discovery import DiscoveryService
        from repro.overlay.filesharing import FileSharingService
        from repro.overlay.filetransfer import FileTransferService
        from repro.overlay.taskexec import TaskExecutionService

        self.transfers = FileTransferService(self)
        self.tasks = TaskExecutionService(self)
        self.discovery = DiscoveryService(self)
        self.sharing = FileSharingService(self)
        h = self.host
        from repro.overlay.messages import FileRequest, FileRequestAck

        h.on_message(FileRequest, lambda dg: self.sharing.handle_request(dg))
        h.on_message(
            FileRequestAck,
            lambda dg: self.fulfill(("file-req", dg.payload.filename), dg.payload),
        )

    # -- identity -----------------------------------------------------------

    def advertisement(self) -> PeerAdvertisement:
        """This peer's current advertisement."""
        return PeerAdvertisement(
            published_at=self.sim.now,
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )

    def learn(self, adv: PeerAdvertisement) -> None:
        """Record the id->hostname mapping from an advertisement."""
        self.directory[adv.peer_id] = adv.hostname

    def host_for(self, peer_id: PeerId) -> Host:
        """Resolve a peer id to its live host (must be in directory)."""
        hostname = self.directory.get(peer_id)
        if hostname is None:
            raise UnknownPeerError(f"{self.name}: no route to {peer_id}")
        return self.network.host(hostname)

    # -- waiter plumbing ---------------------------------------------------------

    def expect(self, key: Any) -> Event:
        """Register interest in the reply identified by ``key``."""
        ev = self.sim.event(name=f"wait{key!r}@{self.name}")
        self._waiters.setdefault(key, []).append(ev)
        return ev

    def cancel_wait(self, key: Any, ev: Event) -> None:
        """Withdraw a waiter (after a timeout)."""
        lst = self._waiters.get(key)
        if lst and ev in lst:
            lst.remove(ev)
            if not lst:
                del self._waiters[key]

    def fulfill(self, key: Any, value: Any) -> bool:
        """Wake the oldest waiter on ``key``; False if nobody waits."""
        lst = self._waiters.get(key)
        if not lst:
            return False
        ev = lst.pop(0)
        if not lst:
            del self._waiters[key]
        ev.succeed(value)
        return True

    def request(
        self,
        dst: Host,
        payload: Any,
        key: Any,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        light: bool = False,
    ):
        """Generator process: send ``payload`` and await the reply.

        Retries up to ``retries`` times with fresh sends; raises
        :class:`RequestTimeout` when exhausted.  Every attempt outcome
        is recorded in the local message statistics.
        """
        timeout = self.config.request_timeout_s if timeout is None else timeout
        retries = self.config.request_retries if retries is None else retries
        dst_stats = self.interaction_stats(dst.hostname)
        for _attempt in range(retries):
            waiter = self.expect(key)
            self.host.send(dst, payload, light=light)
            yield self.sim.any_of([waiter, self.sim.timeout(timeout)])
            if waiter.triggered:
                self.stats.record_message(self.sim.now, ok=True)
                dst_stats.record_message(self.sim.now, ok=True)
                return waiter.value
            self.cancel_wait(key, waiter)
            self.stats.record_message(self.sim.now, ok=False)
            dst_stats.record_message(self.sim.now, ok=False)
        self._m_request_timeouts.inc()
        raise RequestTimeout(
            f"{self.name}: no reply for {type(payload).__name__} "
            f"after {retries} attempts"
        )

    # -- handlers --------------------------------------------------------------------

    def _wire_handlers(self) -> None:
        h = self.host
        h.on_message(JoinAck, self._on_join_ack)
        h.on_message(PetitionAck, self._on_petition_ack)
        h.on_message(PartConfirm, self._on_part_confirm)
        h.on_message(FilePetition, self._on_file_petition)
        h.on_message(PartNotice, self._on_part_notice)
        h.on_message(TransferCancel, self._on_transfer_cancel)
        h.on_message(TransferComplete, self._on_transfer_complete)
        h.on_message(TaskSubmit, self._on_task_submit)
        h.on_message(TaskCancel, lambda dg: self.tasks.handle_cancel(dg))
        h.on_message(TaskAccept, self._on_task_accept)
        h.on_message(TaskReject, self._on_task_reject)
        h.on_message(TaskResult, self._on_task_result)
        h.on_message(InstantMessage, self._on_im)
        h.on_message(PipeBindRequest, self._on_pipe_bind_request)
        h.on_message(PipeBindAck, self._on_pipe_bind_ack)
        h.on_message(PipeMessage, self._on_pipe_message)
        h.on_message(DiscoveryResponse, self._on_discovery_response)
        h.on_message(GroupJoinAck, self._on_group_join_ack)
        h.on_message(Ping, self._on_ping)
        h.on_message(Pong, self._on_pong)

    # membership ------------------------------------------------------------

    def _on_join_ack(self, dgram: Datagram) -> None:
        ack: JoinAck = dgram.payload
        self.fulfill(("join", self.peer_id), ack)

    # file transfer (correlation + delegation) --------------------------------

    def _on_petition_ack(self, dgram: Datagram) -> None:
        ack: PetitionAck = dgram.payload
        self.fulfill(("petition-ack", ack.transfer_id), ack)

    def _on_part_confirm(self, dgram: Datagram) -> None:
        c: PartConfirm = dgram.payload
        self.fulfill(("part-confirm", c.transfer_id, c.index), c)

    def _on_file_petition(self, dgram: Datagram) -> None:
        self.transfers.handle_petition(dgram)

    def _on_part_notice(self, dgram: Datagram) -> None:
        self.transfers.handle_part_notice(dgram)

    def _on_transfer_cancel(self, dgram: Datagram) -> None:
        self.transfers.handle_cancel(dgram)

    def _on_transfer_complete(self, dgram: Datagram) -> None:
        self.transfers.handle_complete(dgram)

    # tasks --------------------------------------------------------------------

    def _on_task_submit(self, dgram: Datagram) -> None:
        self.tasks.handle_submit(dgram)

    def _on_task_accept(self, dgram: Datagram) -> None:
        a: TaskAccept = dgram.payload
        self.fulfill(("task-decision", a.task_id), a)

    def _on_task_reject(self, dgram: Datagram) -> None:
        r: TaskReject = dgram.payload
        self.fulfill(("task-decision", r.task_id), r)

    def _on_task_result(self, dgram: Datagram) -> None:
        r: TaskResult = dgram.payload
        self.fulfill(("task-result", r.task_id), r)

    # IM & pipes ------------------------------------------------------------------

    def _on_im(self, dgram: Datagram) -> None:
        self.im_inbox.put(dgram.payload)

    def _on_pipe_bind_request(self, dgram: Datagram) -> None:
        req: PipeBindRequest = dgram.payload
        src = self.network.host(dgram.src)
        self.host.send(src, PipeBindAck(pipe_id=req.pipe_id, accepted=True), light=True)

    def _on_pipe_bind_ack(self, dgram: Datagram) -> None:
        ack: PipeBindAck = dgram.payload
        self.fulfill(("pipe-bind", ack.pipe_id), ack)

    def _on_pipe_message(self, dgram: Datagram) -> None:
        msg: PipeMessage = dgram.payload
        if not self.fulfill(("pipe-msg", msg.pipe_id), msg):
            self.im_inbox.put(msg)

    def _on_discovery_response(self, dgram: Datagram) -> None:
        resp: DiscoveryResponse = dgram.payload
        self.fulfill(("disc", resp.query_id), resp)

    def _on_group_join_ack(self, dgram: Datagram) -> None:
        ack: GroupJoinAck = dgram.payload
        self.fulfill(("group-join", ack.group_id), ack)

    def _on_ping(self, dgram: Datagram) -> None:
        ping: Ping = dgram.payload
        if self.host.is_up:
            src = self.network.host(dgram.src)
            self.host.send(src, Pong(nonce=ping.nonce), light=True)

    def _on_pong(self, dgram: Datagram) -> None:
        pong: Pong = dgram.payload
        self.fulfill(("pong", pong.nonce), pong)

    # -- broker membership ---------------------------------------------------------

    def connect(self, broker_adv: PeerAdvertisement):
        """Generator process: join the overlay through a broker.

        Sends ``JoinRequest`` and waits for the ``JoinAck``; on success
        opens a local session and starts the keepalive/stat-report
        loops.  Returns the :class:`JoinAck`.
        """
        self.learn(broker_adv)
        broker_host = self.network.host(broker_adv.hostname)
        req = JoinRequest(
            peer_id=self.peer_id,
            name=self.name,
            hostname=self.host.hostname,
            cpu_speed=self.host.spec.cpu_speed,
            kind=self.kind,
        )
        ack: JoinAck = yield self.sim.process(
            self.request(broker_host, req, ("join", self.peer_id))
        )
        if not ack.accepted:
            raise NotConnectedError(f"{self.name}: join refused: {ack.reason}")
        self._finalize_join(broker_adv, ack)
        self.sim.process(self._keepalive_loop(), name=f"keepalive@{self.name}")
        self.sim.process(self._stat_report_loop(), name=f"stats@{self.name}")
        return ack

    def _finalize_join(self, broker_adv: PeerAdvertisement, ack: JoinAck) -> None:
        """Adopt an accepted broker: session and directory."""
        self.broker_adv = broker_adv
        self.directory[ack.broker_id] = broker_adv.hostname
        self.online = True
        if not self.stats.session_active:
            self.stats.start_session()

    def disconnect(self) -> None:
        """Leave the overlay: notify the broker and close the session."""
        if not self.online:
            return
        broker_host = self.network.host(self.broker_adv.hostname)
        self.host.send(broker_host, LeaveNotice(peer_id=self.peer_id), light=True)
        self.online = False
        if self.stats.session_active:
            self.stats.end_session()

    def _broker_host(self) -> Host:
        if self.broker_adv is None:
            raise NotConnectedError(f"{self.name} has no broker")
        return self.network.host(self.broker_adv.hostname)

    def _keepalive_loop(self):
        while self.online:
            if not self.host.is_up:
                # Crashed host: nothing can be sent until recovery.
                yield self.config.keepalive_interval_s
                continue
            self.stats.sample_queues(
                outbox_len=self.stats.pending_transfers,
                inbox_len=len(self.host.inbox) + self.stats.pending_tasks,
            )
            # Queue-occupancy sampling rides the keepalive cadence so
            # every connected peer reports at the same sim-time rhythm.
            self._m_inbox_len.observe(self.stats.inbox_len_now)
            self._m_pending_transfers.observe(self.stats.pending_transfers)
            self._m_pending_tasks.observe(self.stats.pending_tasks)
            beacon = KeepAlive(
                peer_id=self.peer_id,
                outbox_len=self.stats.outbox_len_now,
                inbox_len=self.stats.inbox_len_now,
                pending_tasks=self.stats.pending_tasks,
                pending_transfers=self.stats.pending_transfers,
            )
            self.host.send(self._broker_host(), beacon, light=True)
            yield self.config.keepalive_interval_s

    def _stat_report_loop(self):
        while self.online:
            if not self.host.is_up:
                yield self.config.stat_report_interval_s
                continue
            report = StatReport(
                peer_id=self.peer_id,
                counters=self.stats.snapshot(
                    self.sim.now, last_k_hours=self.config.last_k_hours
                ),
            )
            self.host.send(self._broker_host(), report, light=True)
            yield self.config.stat_report_interval_s

    # -- broker liveness & failover ------------------------------------------------

    def ping_broker(self, timeout: Optional[float] = None):
        """Generator process: probe the current broker's liveness.

        Returns True when the broker answers within ``timeout``; False
        otherwise (never raises).
        """
        if self.broker_adv is None:
            raise NotConnectedError(f"{self.name} has no broker")
        timeout = self.config.request_timeout_s if timeout is None else timeout
        nonce = self.next_query_id()
        try:
            yield self.sim.process(
                self.request(
                    self._broker_host(),
                    Ping(sender=self.peer_id, nonce=nonce),
                    ("pong", nonce),
                    timeout=timeout,
                    retries=1,
                    light=True,
                )
            )
            return True
        except (RequestTimeout, HostDownError):
            # HostDownError = our *own* host died mid-probe; treat the
            # probe as unanswered and let the caller re-check is_up.
            return False

    def enable_failover(
        self,
        backups: "list[PeerAdvertisement]",
        check_interval_s: float = 60.0,
        ping_timeout_s: float = 20.0,
    ) -> None:
        """Watch the current broker; rehome to a backup if it dies.

        Backups are tried in order; the failover loop keeps running, so
        a chain of broker failures walks down the list.  Requires the
        peer to be online.
        """
        if not self.online:
            raise NotConnectedError(f"{self.name} is not connected")
        if check_interval_s <= 0 or ping_timeout_s <= 0:
            raise ValueError("failover intervals must be > 0")
        self._backup_brokers = list(backups)
        self.sim.process(
            self._failover_loop(check_interval_s, ping_timeout_s),
            name=f"failover@{self.name}",
        )

    def _failover_loop(self, interval: float, ping_timeout: float):
        while self.online:
            yield interval
            if not self.host.is_up or self.broker_adv is None:
                continue
            alive = yield self.sim.process(self.ping_broker(ping_timeout))
            if alive:
                continue
            if not self.host.is_up:
                # We crashed mid-probe; the broker was never judged.
                continue
            dead = self.broker_adv
            for backup in list(getattr(self, "_backup_brokers", [])):
                if backup.peer_id == dead.peer_id:
                    continue
                try:
                    self.online = False  # suspend periodic loops
                    if self.stats.session_active:
                        self.stats.end_session()
                    yield self.sim.process(self.connect(backup))
                    self._backup_brokers.remove(backup)
                    self._backup_brokers.append(dead)  # demote the dead one
                    break
                except (RequestTimeout, NotConnectedError, HostDownError):
                    continue
            else:
                # No backup answered: stay with the old broker and
                # keep probing.
                self.online = True
                if not self.stats.session_active:
                    self.stats.start_session()

    # -- observation helpers ----------------------------------------------------------

    def observed_perf(self, peer_id: PeerId) -> PerformanceHistory:
        """This peer's performance history for ``peer_id`` (create-on-use)."""
        hist = self.observed.get(peer_id)
        if hist is None:
            hist = PerformanceHistory()
            self.observed[peer_id] = hist
        return hist

    def interaction_stats(self, hostname: str) -> PeerStats:
        """Per-destination interaction accounting (create-on-use)."""
        stats = self.interactions.get(hostname)
        if stats is None:
            stats = PeerStats()
            self.interactions[hostname] = stats
        return stats

    # -- instant messaging ----------------------------------------------------------------

    def send_im(self, dst_adv: PeerAdvertisement, text: str) -> None:
        """Send a one-line instant message (fire-and-forget)."""
        self.learn(dst_adv)
        dst = self.network.host(dst_adv.hostname)
        self.host.send(dst, InstantMessage(sender=self.peer_id, text=text), light=True)

    def next_query_id(self) -> int:
        """Mint a correlation id for discovery queries."""
        self._next_query_id += 1
        return self._next_query_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ({self.kind})>"
