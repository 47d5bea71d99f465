"""Per-download piece accounting: availability, rarest-first, endgame.

A :class:`PieceTracker` is the pure (simulation-free) bookkeeping core
of a swarm download.  It knows, for every part of one file:

* which registered *sources* hold it (availability),
* whether a fetch is in flight and from whom,
* whether the part is already proven (confirmed end-to-end).

Ordering is BitTorrent's rarest-first: the next piece for a source is
the unproven, unrequested piece it holds with the lowest availability;
ties break on a per-download seeded priority permutation (so parallel
sources spread instead of colliding on the same low index) and then on
the part index.  Once every unproven piece is already in flight the
tracker enters *endgame* and hands out bounded duplicate requests.

Everything is deterministic: sources live in insertion-ordered dicts,
scans run in ascending index order, and the tie-break priorities come
from one named :class:`~repro.simnet.rng.RandomStreams` stream drawn
at construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["PieceTracker"]


class PieceTracker:
    """Availability + rarest-first ordering for one file's parts."""

    def __init__(
        self,
        part_sizes: Sequence[float],
        priorities: Sequence[float],
    ) -> None:
        """``priorities`` are the seeded tie-break draws, one float per
        part; equal priorities fall back to ascending index order."""
        self.part_sizes: Tuple[float, ...] = tuple(
            float(s) for s in part_sizes
        )
        n = len(self.part_sizes)
        if n < 1:
            raise ValueError("a download needs at least one part")
        if len(priorities) != n:
            raise ValueError(f"{len(priorities)} priorities for {n} parts")
        self._priority: Tuple[float, ...] = tuple(float(p) for p in priorities)
        #: source name -> pieces held (None = the whole file); the
        #: membership view is a frozenset, never iterated.
        self._sources: Dict[str, Optional[frozenset]] = {}
        #: piece -> {source name: None} currently fetching it
        #: (insertion-ordered dict-as-set, deterministic iteration).
        self._inflight: Dict[int, Dict[str, None]] = {
            i: {} for i in range(n)
        }
        self._proven: Dict[int, bool] = {}

    # -- sources -------------------------------------------------------------

    def add_source(
        self, name: str, pieces: Optional[Sequence[int]] = None
    ) -> None:
        """Register a source holding ``pieces`` (None = all parts)."""
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        held = None if pieces is None else frozenset(int(i) for i in pieces)
        if held is not None:
            for i in tuple(sorted(held)):
                if not 0 <= i < self.n_parts:
                    raise ValueError(f"piece {i} outside layout")
        self._sources[name] = held

    def remove_source(self, name: str) -> List[int]:
        """Deregister a source; returns the pieces it was fetching
        (now returned to the pool for re-assignment)."""
        self._sources.pop(name, None)
        dropped: List[int] = []
        for i in range(self.n_parts):
            if name in self._inflight[i]:
                del self._inflight[i][name]
                dropped.append(i)
        return dropped

    def sources(self) -> Tuple[str, ...]:
        """Registered source names, admission-ordered."""
        return tuple(self._sources)

    def holds(self, name: str, piece: int) -> bool:
        """Does a registered source hold ``piece``?"""
        held = self._sources.get(name, frozenset())
        if held is None:
            return name in self._sources
        return piece in held

    def holders(self, piece: int) -> Tuple[str, ...]:
        """Registered sources holding ``piece``, admission-ordered."""
        return tuple(
            name for name in self._sources if self.holds(name, piece)
        )

    def availability(self, piece: int) -> int:
        """Number of registered sources holding ``piece``."""
        return len(self.holders(piece))

    # -- piece state ---------------------------------------------------------

    @property
    def n_parts(self) -> int:
        return len(self.part_sizes)

    def proven(self, piece: int) -> bool:
        """Has ``piece`` been confirmed end-to-end?"""
        return piece in self._proven

    def mark_proven(self, piece: int) -> bool:
        """Record an end-to-end confirm; True when newly proven."""
        if piece in self._proven:
            return False
        self._proven[piece] = True
        self._inflight[piece].clear()
        return True

    def begin(self, piece: int, source: str) -> None:
        """A source starts fetching ``piece``."""
        self._inflight[piece][source] = None

    def abandon(self, piece: int, source: str) -> None:
        """A source gives up on ``piece`` (failure or endgame cancel)."""
        self._inflight[piece].pop(source, None)

    def inflight(self, piece: int) -> int:
        """Concurrent fetches of ``piece``."""
        return len(self._inflight[piece])

    def fetching(self, source: str, piece: int) -> bool:
        """Is ``source`` currently fetching ``piece``?"""
        return source in self._inflight[piece]

    @property
    def proven_count(self) -> int:
        return len(self._proven)

    @property
    def complete(self) -> bool:
        """Every part proven."""
        return len(self._proven) >= self.n_parts

    @property
    def in_endgame(self) -> bool:
        """Every unproven piece already has a fetch in flight."""
        if self.complete:
            return False
        for i in range(self.n_parts):
            if i not in self._proven and not self._inflight[i]:
                return False
        return True

    def remaining(self) -> List[Tuple[int, float]]:
        """``(index, size_bits)`` of unproven parts, ascending — the
        same accounting a resuming sender reads from its ledger."""
        return [
            (i, size)
            for i, size in enumerate(self.part_sizes)
            if i not in self._proven
        ]

    # -- ordering ------------------------------------------------------------

    def next_piece(
        self, source: str, max_duplicates: int = 1
    ) -> Optional[int]:
        """The piece ``source`` should fetch next, or None.

        Rarest-first over the unproven, *unrequested* pieces the source
        holds, keyed ``(availability, priority, index)``.  When every
        unproven piece is in flight (endgame), duplicate requests are
        allowed up to ``max_duplicates`` concurrent fetchers per piece,
        preferring the least-duplicated piece.  A source never gets a
        piece twice concurrently, never gets a piece it does not hold,
        and — because candidates are drawn from its held set — never a
        piece with zero availability.
        """
        best: Optional[Tuple[int, float, int]] = None
        best_piece: Optional[int] = None
        for i in range(self.n_parts):
            if i in self._proven or self._inflight[i]:
                continue
            if not self.holds(source, i):
                continue
            key = (self.availability(i), self._priority[i], i)
            if best is None or key < best:
                best, best_piece = key, i
        if best_piece is not None:
            return best_piece
        if not self.in_endgame:
            # Unrequested pieces exist but this source holds none of
            # them — duplicating now would race the primary fetchers
            # before the endgame justifies it.
            return None
        dup_best: Optional[Tuple[int, int, float, int]] = None
        dup_piece: Optional[int] = None
        for i in range(self.n_parts):
            if i in self._proven or not self.holds(source, i):
                continue
            if source in self._inflight[i]:
                continue
            n_fetching = len(self._inflight[i])
            if n_fetching >= max_duplicates:
                continue
            key = (n_fetching, self.availability(i), self._priority[i], i)
            if dup_best is None or key < dup_best:
                dup_best, dup_piece = key, i
        return dup_piece
