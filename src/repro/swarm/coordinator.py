"""Multi-source download coordination.

A :class:`SwarmCoordinator` delivers one file to one destination by
streaming its parts concurrently from *k* source peers — the
BitTorrent generalization of the paper's part-granularity result,
mapped onto the overlay's push protocol: each source opens its own
petitioned transfer to the destination and pushes the pieces the
coordinator assigns it.

* Piece ordering is rarest-first with a seeded tie-break
  (:class:`~repro.swarm.pieces.PieceTracker`).
* Concurrency is bounded by choke/unchoke slots ranked on observed
  part throughput (:class:`~repro.swarm.choke.ChokeManager`); choking
  applies at piece boundaries, never mid-stream.
* The last pieces enter *endgame*: bounded duplicate requests race the
  stragglers, and a duplicate whose piece is proven mid-stream skips
  its confirm round (``cancel_if`` on
  :meth:`~repro.overlay.filetransfer.TransferHandle.send_part`); a
  duplicate confirm that does land is deduplicated by the ledger's
  digest-keyed proofs.
* Failure handling reuses the resume layer's unproven-part
  accounting: every confirmed piece is proven in a
  :class:`~repro.recovery.ledger.TransferLedger`, so a crashed or
  choked-out source never loses verified work — its in-flight piece
  returns to the pool and is re-assigned to the survivors (plus an
  optional replacement source from the selection callback).

``download`` never raises — it always returns a
:class:`SwarmOutcome` so experiment accounting can classify every
offered download without exception plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import HostDownError, TransferAborted
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.filetransfer import OPEN_ENDED, part_digest, split_even
from repro.overlay.peer import PeerNode, RequestTimeout
from repro.recovery.ledger import TransferLedger
from repro.simnet.transport import Network
from repro.swarm.choke import ChokeManager
from repro.swarm.config import SwarmConfig
from repro.swarm.pieces import PieceTracker

__all__ = ["SwarmSource", "PieceRequest", "SwarmOutcome", "SwarmCoordinator"]

#: Completion-time histogram bounds (seconds).
_COMPLETION_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0)


@dataclass(frozen=True)
class SwarmSource:
    """One candidate source: a peer node and the pieces it holds."""

    node: PeerNode
    #: Part indices this source can serve (None = the whole file).
    pieces: Optional[Tuple[int, ...]] = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass(frozen=True)
class PieceRequest:
    """One piece assignment, as issued (including endgame duplicates)."""

    piece: int
    source: str
    duplicate: bool
    at: float


#: Selection callback: ``(needed, exclude_names) -> sources``.  Called
#: once at download start with ``needed = k`` and again (``needed = 1``)
#: after a source failure when re-assignment is enabled.
SelectSourcesFn = Callable[[int, Tuple[str, ...]], Sequence[SwarmSource]]


@dataclass
class SwarmOutcome:
    """Everything measured about one swarm download."""

    filename: str
    total_bits: float
    n_parts: int
    started_at: float = 0.0
    finished_at: float = 0.0
    ok: bool = False
    reason: str = ""
    #: Parts already proven in the ledger before this download ran.
    parts_skipped: int = 0
    #: Endgame requests issued for a piece already in flight.
    duplicate_requests: int = 0
    #: Duplicates whose confirm round was skipped (proof landed first).
    duplicates_cancelled: int = 0
    #: Duplicates that completed a redundant full round.
    duplicate_parts: int = 0
    #: Source failures whose in-flight piece returned to the pool.
    reassignments: int = 0
    #: Peak concurrently-streaming sources.
    max_active: int = 0
    sources_used: List[str] = field(default_factory=list)
    sources_failed: List[str] = field(default_factory=list)
    requests: List[PieceRequest] = field(default_factory=list)
    #: ``(piece, proven_at)`` in proof order.
    proofs: List[Tuple[int, float]] = field(default_factory=list)
    first_part_at: float = math.nan

    @property
    def completion_s(self) -> float:
        """Download start (petitions included) to final proof."""
        return self.finished_at - self.started_at

    @property
    def transmission_s(self) -> float:
        """Pure data phase: first part start to final proof — the
        quantity the legacy path calls ``transmission_time``."""
        if math.isnan(self.first_part_at):
            return 0.0
        return self.finished_at - self.first_part_at

    @property
    def last_piece_tail_s(self) -> float:
        """Time the download spent on its final piece after every
        other piece was proven (the swarming analogue of the paper's
        last-Mb measurement)."""
        if len(self.proofs) < 2:
            return self.transmission_s
        return self.proofs[-1][1] - self.proofs[-2][1]


class SwarmCoordinator:
    """Drives one multi-source download of one file."""

    def __init__(
        self,
        network: Network,
        dst_adv: PeerAdvertisement,
        filename: str,
        total_bits: float,
        n_parts: int,
        select: SelectSourcesFn,
        k: int = 2,
        config: Optional[SwarmConfig] = None,
        ledger: Optional[TransferLedger] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.network = network
        self.sim = network.sim
        self.dst_adv = dst_adv
        self.filename = filename
        self.total_bits = float(total_bits)
        self.n_parts = int(n_parts)
        self.select = select
        self.k = k
        self.config = config if config is not None else SwarmConfig()
        #: Proof store shared by every source stream of this download —
        #: the same unproven-part accounting a resuming sender uses.
        self.ledger = ledger if ledger is not None else TransferLedger()
        reg = network.metrics
        self._g_active = reg.gauge("swarm.sources_active")
        self._m_duplicates = reg.counter("swarm.duplicate_parts")
        self._m_reassign = reg.counter("swarm.reassignments")
        self._m_proven = reg.counter("swarm.parts_proven")
        self._m_ok = reg.counter("swarm.downloads_ok")
        self._m_failed = reg.counter("swarm.downloads_failed")
        self._m_completion = reg.histogram(
            "swarm.completion_s", bounds=_COMPLETION_BUCKETS
        )
        self.outcome = SwarmOutcome(
            filename=filename, total_bits=self.total_bits, n_parts=self.n_parts
        )
        self._tracker: Optional[PieceTracker] = None
        self._choke = ChokeManager(
            self.config.unchoke_slots,
            self.config.optimistic_every,
            drop_below=self.config.drop_below,
        )
        self._used: Dict[str, None] = {}
        self._streaming = 0
        self._idle = 0
        self._alive = 0
        self._finished = False
        self._wake = self.sim.event(name=f"swarm-wake({filename})")
        self._done = self.sim.event(name=f"swarm-done({filename})")

    # -- driver --------------------------------------------------------------

    def download(self):
        """Generator process: deliver the file from up to k sources.

        Returns the :class:`SwarmOutcome`; never raises.
        """
        sim = self.sim
        out = self.outcome
        out.started_at = sim.now
        sizes = split_even(self.total_bits, self.n_parts)
        entry = self.ledger.open(
            self.filename, self.total_bits, sizes, now=sim.now
        )
        priorities = None
        if self.config.seeded_tiebreak:
            rng = self.network.streams.get(f"swarm/{self.filename}")
            priorities = [float(x) for x in rng.random(self.n_parts)]
        tracker = PieceTracker(sizes, priorities)
        self._tracker = tracker
        for index in entry.verified_indices():
            tracker.mark_proven(index)
            out.parts_skipped += 1
        self.network.tracer.record(
            "swarm-open", sim.now,
            filename=self.filename, dst=self.dst_adv.name,
            parts=self.n_parts, skipped=out.parts_skipped, k=self.k,
        )
        if tracker.complete:
            out.ok = True
            out.finished_at = sim.now
            self._m_ok.inc()
            return out
        initial = tuple(self.select(self.k, ()))[: self.k]
        if not initial:
            out.reason = "no sources"
            out.finished_at = sim.now
            self._m_failed.inc()
            return out
        for src in initial:
            if src.name not in self._used:
                self._admit(src)
        if self.config.pin_origin and initial:
            # The first source the selection callback names is the
            # origin copy: it keeps a streaming slot for the whole
            # download (observed-rate ranking cannot tell a capable
            # origin from a replica once equal shares cap them both).
            self._choke.pin(initial[0].name)
        yield self._done
        out.finished_at = sim.now
        out.ok = tracker.complete
        if out.ok:
            self._m_ok.inc()
            self._m_completion.observe(out.completion_s)
        else:
            self._m_failed.inc()
        self.network.tracer.record(
            "swarm-done", sim.now,
            filename=self.filename, ok=out.ok,
            duplicates=out.duplicate_requests,
            reassignments=out.reassignments,
        )
        return out

    def abort(self, reason: str = "aborted") -> None:
        """Stop the download (deadline supervision hook).

        Parked workers exit at the next wake; streaming workers drain
        their current part first (bulk units cannot be recalled), so
        the ``download`` process settles shortly after.  Safe to call
        at any point, including after completion (then a no-op).
        """
        if self._finished:
            return
        if not self.outcome.reason:
            self.outcome.reason = reason
        self._finish()

    # -- source lifecycle ----------------------------------------------------

    def _admit(self, src: SwarmSource) -> None:
        name = src.name
        self._used[name] = None
        self.outcome.sources_used.append(name)
        self._tracker.add_source(name, src.pieces)
        self._choke.admit(name)
        self._alive += 1
        self.sim.process(
            self._worker(src), name=f"swarm-{self.filename}-{name}"
        )

    def _worker(self, src: SwarmSource):
        sim = self.sim
        cfg = self.config
        out = self.outcome
        tracker = self._tracker
        name = src.name
        handle = None
        current: Optional[int] = None
        try:
            try:
                while not self._finished and not tracker.complete:
                    if (
                        not self._choke.unchoked(name)
                        or self._streaming >= cfg.unchoke_slots
                    ):
                        yield from self._idle_wait()
                        continue
                    piece = tracker.next_piece(name, cfg.endgame_duplicates)
                    if piece is None:
                        yield from self._idle_wait()
                        continue
                    duplicate = tracker.inflight(piece) > 0
                    tracker.begin(piece, name)
                    current = piece
                    size = tracker.part_sizes[piece]
                    out.requests.append(
                        PieceRequest(piece, name, duplicate, sim.now)
                    )
                    if duplicate:
                        out.duplicate_requests += 1
                    self._streaming += 1
                    self._g_active.set(self._streaming)
                    out.max_active = max(out.max_active, self._streaming)
                    try:
                        if handle is None:
                            handle = yield sim.process(
                                src.node.transfers.open_transfer(
                                    self.dst_adv,
                                    self.filename,
                                    self.total_bits,
                                    n_parts_hint=OPEN_ENDED,
                                    file_n_parts=self.n_parts,
                                )
                            )
                        if math.isnan(out.first_part_at):
                            out.first_part_at = sim.now
                        cancel_if = None
                        if duplicate:
                            # Endgame: drop the confirm round when the
                            # primary's proof lands mid-stream.
                            cancel_if = (
                                lambda p=piece: tracker.proven(p)
                            )
                        rec = yield sim.process(
                            handle.send_part(
                                size, index=piece, cancel_if=cancel_if
                            )
                        )
                    finally:
                        self._streaming -= 1
                        self._g_active.set(self._streaming)
                    if rec is None:
                        # Cancelled duplicate: proven elsewhere while
                        # our copy streamed.
                        tracker.abandon(piece, name)
                        current = None
                        out.duplicates_cancelled += 1
                        self._m_duplicates.inc()
                        self.network.tracer.record(
                            "swarm-cancel", sim.now,
                            filename=self.filename, piece=piece, source=name,
                        )
                        self._kick()
                        continue
                    current = None
                    if tracker.mark_proven(piece):
                        # First proof wins; duplicates below dedup
                        # against it by digest in the ledger.
                        self.ledger.record_confirmed(
                            self.filename,
                            piece,
                            size,
                            part_digest(self.filename, piece, size),
                            dst=self.dst_adv.peer_id,
                            now=sim.now,
                        )
                        out.proofs.append((piece, sim.now))
                        self._m_proven.inc()
                        self._choke.record(name, size, rec.total_seconds)
                        self._choke.on_proof()
                        self.network.tracer.record(
                            "swarm-piece", sim.now,
                            filename=self.filename, piece=piece,
                            source=name, duplicate=duplicate,
                        )
                        if tracker.complete:
                            self._finish()
                    else:
                        # Both duplicate streams confirmed before either
                        # proof landed — a redundant full round.
                        out.duplicate_parts += 1
                        self._m_duplicates.inc()
                    self._kick()
            except (TransferAborted, HostDownError, RequestTimeout) as exc:
                if current is not None:
                    tracker.abandon(current, name)
                if handle is not None and not handle.closed:
                    # send_part self-cancels on aborts; a confirm-round
                    # RequestTimeout leaves the handle open.
                    handle.cancel(f"swarm source failed: {type(exc).__name__}")
                handle = None
                self._on_source_failed(src, current, exc)
                return
        except GeneratorExit:
            # Closed while suspended: the run was abandoned (a run
            # deadline) and the garbage collector is reclaiming this
            # worker.  That moment depends on allocation, not on
            # simulated time, so notify no receiver from here.
            handle = None
            raise
        finally:
            self._alive -= 1
            if handle is not None and not handle.closed:
                handle.close()
            if self._alive == 0 and not self._finished:
                if not self.outcome.reason:
                    self.outcome.reason = "all sources failed"
                self._finish()
            self._kick()

    def _idle_wait(self):
        ev = self._wake
        self._idle += 1
        try:
            self._check_progress()
            yield ev
        finally:
            self._idle -= 1

    def _kick(self) -> None:
        """Wake every parked worker (wake event is regenerated)."""
        old, self._wake = self._wake, self.sim.event(
            name=f"swarm-wake({self.filename})"
        )
        if not old.triggered:
            old.succeed()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if not self._done.triggered:
            self._done.succeed()
        self._kick()

    def _check_progress(self) -> None:
        """Stall detection: every live worker parked, nothing on the
        wire.  Either some unchoked source can pick up a free piece at
        its next wake (leave it alone — forcing here would ping-pong
        the slots between holders within one wake storm and never let
        a worker reach its gate), or every free piece's holders are all
        choked (break the stall by force-unchoking one), or no
        registered source holds some unproven piece (fail rather than
        hang)."""
        if self._finished or self._streaming > 0 or self._idle < self._alive:
            return
        tracker = self._tracker
        holders_exist = False
        stalled: Optional[Tuple[str, ...]] = None
        for piece, _size in tracker.remaining():
            if tracker.inflight(piece):
                continue
            holders = tracker.holders(piece)
            if not holders:
                continue
            holders_exist = True
            if any(self._choke.unchoked(h) for h in holders):
                # Progress is possible without intervention: the event
                # that freed this piece already kicked its holders.
                return
            if stalled is None:
                stalled = holders
        if stalled is not None:
            self._choke.force_unchoke(stalled[0])
            self._kick()
        elif not holders_exist:
            self.outcome.reason = (
                "pieces unavailable: every holding source failed"
            )
            self._finish()

    def _on_source_failed(self, src: SwarmSource, piece, exc) -> None:
        sim = self.sim
        name = src.name
        dropped = self._tracker.remove_source(name)
        self._choke.drop(name)
        self.outcome.sources_failed.append(name)
        if piece is not None or dropped:
            self.outcome.reassignments += 1
            self._m_reassign.inc()
        self.network.tracer.record(
            "swarm-reassign", sim.now,
            filename=self.filename, source=name,
            error=type(exc).__name__,
            dropped=len(dropped) + (1 if piece is not None else 0),
        )
        if (
            self.config.reassign
            and not self._finished
            and not self._tracker.complete
        ):
            exclude = tuple(self._used)
            replacement = tuple(self.select(1, exclude))[:1]
            for repl in replacement:
                if repl.name not in self._used:
                    self._admit(repl)
        self._kick()
