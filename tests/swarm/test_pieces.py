"""Tests for PieceTracker: availability, rarest-first, endgame."""

from __future__ import annotations

import pytest

from repro.swarm.pieces import PieceTracker


def make_tracker(n=4, priorities=None):
    """A tracker over ``n`` 1 Mb parts; equal priorities by default,
    so ties fall through to the part index."""
    if priorities is None:
        priorities = [0.0] * n
    return PieceTracker([1e6] * n, priorities)


class TestLayout:
    def test_empty_layout_raises(self):
        with pytest.raises(ValueError):
            PieceTracker([], [])

    def test_priority_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PieceTracker([1e6, 1e6], priorities=[0.5])

    def test_part_sizes_coerced_to_float(self):
        t = PieceTracker([1, 2], [0.0, 0.0])
        assert t.part_sizes == (1.0, 2.0)
        assert t.n_parts == 2


class TestSources:
    def test_add_source_twice_raises(self):
        t = make_tracker()
        t.add_source("a")
        with pytest.raises(ValueError):
            t.add_source("a")

    def test_piece_outside_layout_raises(self):
        t = make_tracker(n=4)
        with pytest.raises(ValueError):
            t.add_source("a", pieces=[0, 4])

    def test_full_holder_holds_everything(self):
        t = make_tracker(n=3)
        t.add_source("a")
        assert all(t.holds("a", i) for i in range(3))
        assert t.holders(1) == ("a",)

    def test_partial_holder(self):
        t = make_tracker(n=4)
        t.add_source("a", pieces=[1, 3])
        assert not t.holds("a", 0)
        assert t.holds("a", 3)
        assert t.availability(0) == 0
        assert t.availability(1) == 1

    def test_unregistered_source_holds_nothing(self):
        t = make_tracker()
        assert not t.holds("ghost", 0)

    def test_remove_source_returns_inflight_pieces(self):
        t = make_tracker(n=4)
        t.add_source("a")
        t.begin(1, "a")
        t.begin(3, "a")
        assert t.remove_source("a") == [1, 3]
        assert t.sources() == ()
        assert t.inflight(1) == 0


class TestPieceState:
    def test_mark_proven_is_idempotent(self):
        t = make_tracker()
        assert t.mark_proven(0)
        assert not t.mark_proven(0)
        assert t.proven(0)
        assert t.proven_count == 1

    def test_proof_clears_inflight(self):
        t = make_tracker()
        t.add_source("a")
        t.begin(0, "a")
        t.mark_proven(0)
        assert t.inflight(0) == 0

    def test_remaining_and_complete(self):
        t = make_tracker(n=2)
        assert t.remaining() == [(0, 1e6), (1, 1e6)]
        t.mark_proven(0)
        assert t.remaining() == [(1, 1e6)]
        t.mark_proven(1)
        assert t.complete
        assert not t.in_endgame


class TestRarestFirst:
    def test_rarest_piece_wins(self):
        t = make_tracker(n=3)
        t.add_source("a")  # holds all
        t.add_source("b", pieces=[0, 1])
        # Piece 2 has availability 1 (only "a"), pieces 0/1 have 2.
        assert t.next_piece("a") == 2

    def test_priority_breaks_availability_ties(self):
        t = make_tracker(n=3, priorities=[0.9, 0.1, 0.5])
        t.add_source("a")
        assert t.next_piece("a") == 1

    def test_index_breaks_full_ties(self):
        t = make_tracker(n=3)
        t.add_source("a")
        assert t.next_piece("a") == 0

    def test_never_returns_proven_or_inflight(self):
        t = make_tracker(n=2)
        t.add_source("a")
        t.add_source("b")
        t.mark_proven(0)
        t.begin(1, "a")
        # "b" holds both, but 0 is proven and 1 is in flight (and the
        # tracker is now in endgame, so only a duplicate is on offer).
        assert t.next_piece("b", max_duplicates=1) is None

    def test_never_returns_unheld_piece(self):
        t = make_tracker(n=4)
        t.add_source("a", pieces=[2])
        t.add_source("b")
        assert t.next_piece("a") == 2
        t.begin(2, "a")
        assert t.next_piece("a") is None  # nothing else held

    def test_zero_availability_pieces_never_requested(self):
        t = make_tracker(n=4)
        t.add_source("a", pieces=[0, 1])
        seen = set()
        while True:
            piece = t.next_piece("a")
            if piece is None:
                break
            assert t.availability(piece) > 0
            seen.add(piece)
            t.begin(piece, "a")
        assert seen == {0, 1}


class TestEndgame:
    def test_endgame_requires_all_inflight(self):
        t = make_tracker(n=2)
        t.add_source("a")
        t.begin(0, "a")
        assert not t.in_endgame
        t.begin(1, "a")
        assert t.in_endgame

    def test_duplicate_only_in_endgame(self):
        t = make_tracker(n=2)
        t.add_source("a")
        t.add_source("b")
        t.begin(0, "a")
        # Piece 1 is still unrequested: "b" gets it, not a duplicate
        # of 0.
        assert t.next_piece("b", max_duplicates=2) == 1

    def test_duplicate_bounded_and_least_duplicated_first(self):
        t = make_tracker(n=2, priorities=[0.1, 0.2])
        for name in ("a", "b", "c"):
            t.add_source(name)
        t.begin(0, "a")
        t.begin(1, "b")
        t.begin(1, "c")  # piece 1 now has 2 fetchers
        # Endgame: "b" may duplicate piece 0 (1 fetcher) but not piece
        # 1 (cap reached and it is already fetching it).
        assert t.next_piece("b", max_duplicates=2) == 0
        t.begin(0, "b")
        # Cap of 2 reached everywhere: nothing left to hand out.
        assert t.next_piece("c", max_duplicates=2) is None

    def test_source_never_duplicates_its_own_fetch(self):
        t = make_tracker(n=1)
        t.add_source("a")
        t.add_source("b")
        t.begin(0, "a")
        assert t.next_piece("a", max_duplicates=2) is None
        assert t.next_piece("b", max_duplicates=2) == 0

    def test_abandon_returns_piece_to_pool(self):
        t = make_tracker(n=1)
        t.add_source("a")
        t.add_source("b")
        t.begin(0, "a")
        t.abandon(0, "a")
        assert t.inflight(0) == 0
        assert t.next_piece("b") == 0
