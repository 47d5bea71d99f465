"""Tests for JXTA-style identifiers."""

from __future__ import annotations

import pytest

from repro.overlay.ids import IdFactory, PeerId, TaskId, TransferId


class TestIdFactory:
    def test_ids_have_urn_shape(self):
        ids = IdFactory()
        pid = ids.peer_id("host")
        assert str(pid).startswith("urn:jxta:uuid-")

    def test_sequential_ids_unique(self):
        ids = IdFactory()
        minted = {ids.peer_id("h") for _ in range(100)}
        assert len(minted) == 100

    def test_deterministic_across_factories(self):
        a = IdFactory(namespace="ns")
        b = IdFactory(namespace="ns")
        assert a.peer_id("x") == b.peer_id("x")
        assert a.task_id() == b.task_id()

    def test_namespaces_independent(self):
        assert IdFactory("n1").peer_id("x") != IdFactory("n2").peer_id("x")

    def test_kinds_have_separate_counters(self):
        ids = IdFactory()
        p = ids.peer_id("x")
        t = ids.task_id("x")
        assert p != t

    def test_all_kinds_mintable(self):
        ids = IdFactory()
        assert isinstance(ids.peer_id(), PeerId)
        assert isinstance(ids.task_id(), TaskId)
        assert isinstance(ids.transfer_id(), TransferId)

    def test_short_suffix(self):
        pid = IdFactory().peer_id()
        assert pid.short == str(pid)[-12:]

    def test_malformed_urn_rejected(self):
        with pytest.raises(ValueError):
            PeerId("not-a-urn")

    def test_ids_orderable_and_hashable(self):
        ids = IdFactory()
        a, b = ids.peer_id(), ids.peer_id()
        assert len({a, b}) == 2
        assert (a < b) or (b < a)
