"""Slotted ``call_at`` events, lazily named timeouts and the float-sleep
fast path.

``call_at`` stores ``fn`` and ``args`` on the event instead of wrapping
them in a closure, a ``Timeout`` formats its name only when asked, and a
process that yields a float builds its ``Timeout`` without the generic
coercion.  None of this may change what the kernel schedules, what a
cancel does, or which entry points an outside wrapper sees.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingInPastError
from repro.simnet.kernel import Event, Simulator, Timeout


class TestCallAt:
    def test_returns_an_event_that_runs_fn_with_args(self, sim):
        seen = []
        ev = sim.call_at(2.0, seen.append, "x")
        assert isinstance(ev, Event)
        assert ev.triggered and not ev.processed
        sim.run()
        assert seen == ["x"]
        assert ev.processed and ev.ok and ev.value is None
        assert sim.now == 2.0

    def test_cancel_drops_the_callback(self, sim):
        seen = []
        ev = sim.call_in(1.0, seen.append, "cancelled")
        keep = sim.call_in(2.0, seen.append, "kept")
        sim.cancel(ev)
        sim.run()
        assert seen == ["kept"]
        assert ev.processed and keep.processed
        assert sim.events_cancelled == 1
        assert sim.events_processed == 1
        sim.cancel(ev)  # already dropped: a no-op
        assert sim.events_cancelled == 1

    def test_compaction_counts_unchanged(self):
        # Pinned on the closure-based call_at: a third of 3000 far
        # timers survive, 2000 are cancelled, 50 near ones interleave.
        sim = Simulator()
        fired = []
        for i in range(3000):
            ev = sim.call_in(1e3 + i, fired.append, i)
            if i % 3:
                sim.cancel(ev)
        for i in range(50):
            sim.call_in(float(i), fired.append, -i)
        sim.run()
        assert len(fired) == 1050
        assert fired[:50] == [-i for i in range(50)]
        assert fired[50:] == list(range(0, 3000, 3))
        assert sim.agenda_compactions == 5
        assert sim.events_cancelled == 2000
        assert sim.events_processed == 1050
        assert sim.max_agenda_depth == 2026
        assert sim._tombstones == 0

    def test_name_comes_from_fn(self, sim):
        def wake_up():
            pass

        assert sim.call_in(1.0, wake_up).name == "wake_up"
        assert "wake_up" in repr(sim.call_in(1.0, wake_up))

    def test_call_in_goes_through_call_at(self, sim, monkeypatch):
        seen = []
        call_at = Simulator.call_at

        def spy(self, when, fn, *args):
            seen.append((when, fn, args))
            return call_at(self, when, fn, *args)

        monkeypatch.setattr(Simulator, "call_at", spy)
        sim.call_in(3.0, print, "x")
        assert seen == [(3.0, print, ("x",))]


class TestTimeout:
    def test_repr_shows_delay(self, sim):
        t = Timeout(sim, 1.5)
        assert t.name == "timeout(1.5)"
        assert "timeout(1.5)" in repr(t)
        assert "timeout(0.25)" in repr(sim.timeout(0.25))

    def test_float_and_int_sleeps_build_timeouts(self, sim, monkeypatch):
        built = []
        init = Timeout.__init__

        def counted(self, *args, **kwargs):
            built.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Timeout, "__init__", counted)

        def sleeper():
            yield 1.5
            yield 2
            yield sim.timeout(0.5)
            return sim.now

        p = sim.process(sleeper())
        sim.run()
        assert p.value == 4.0
        assert built == [1.5, 2.0, 0.5]

    def test_negative_float_sleep_fails_the_process(self, sim):
        def sleeper():
            yield -1.0

        p = sim.process(sleeper())
        with pytest.raises(SchedulingInPastError, match="negative timeout"):
            sim.run(until=p)


def test_wrapped_call_at_sees_send_deliveries(network, monkeypatch):
    """An outside wrapper of ``Simulator.call_at`` (the benchmark's
    per-layer account) must see every datagram delivery."""
    seen = []
    call_at = Simulator.call_at

    def spy(self, when, fn, *args):
        seen.append(fn)
        return call_at(self, when, fn, *args)

    monkeypatch.setattr(Simulator, "call_at", spy)
    a, b = network.host("a.example"), network.host("b.example")
    a.send(b, "one")
    b.send(a, "two")
    network.sim.run()
    assert seen == [b._deliver, a._deliver]
    assert [d.payload for d in (a.inbox._items[0], b.inbox._items[0])] == ["two", "one"]
