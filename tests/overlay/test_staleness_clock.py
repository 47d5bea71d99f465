"""StalenessClock: bulk stamps must equal a per-key monotonic merge.

``note_many`` stamps every key with one ``dict.update`` when the stamp
is at least the newest it holds (keepalives and stat reports), and
merges key by key otherwise (replication digests carry older stamps).
Either way the clock must agree with the reference below, so an old
digest never rejuvenates a key.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.statistics import StalenessClock

KEYS = ("outbox_len_now", "inbox_len_now", "pending_tasks", "pct_files_sent_total", "k")


def _reference_note(seen: dict, key: str, now: float) -> None:
    prior = seen.get(key)
    if prior is None or now > prior:
        seen[key] = now


def _reference_age(seen: dict, key: str, now: float) -> float:
    t = seen.get(key)
    return float("inf") if t is None else max(0.0, now - t)


#: One call: (bulk?, keys, step from the previous call's stamp).  Negative
#: steps give out-of-order stamps, zero steps repeat the newest stamp.
_CALL = st.tuples(
    st.booleans(),
    st.lists(st.sampled_from(KEYS), max_size=len(KEYS)),
    st.one_of(
        st.integers(min_value=-30, max_value=20).map(float),
        st.floats(min_value=-30.0, max_value=20.0, allow_nan=False),
    ),
)


@given(st.lists(_CALL, max_size=40), st.floats(min_value=-50.0, max_value=500.0))
@settings(max_examples=300, deadline=None)
def test_matches_per_key_merge(calls, query_at):
    clock = StalenessClock()
    reference: dict = {}
    now = 100.0
    for bulk, keys, step in calls:
        now += step
        if bulk:
            clock.note_many(keys, now)
        else:
            for key in keys:
                clock.note(key, now)
        for key in keys:
            _reference_note(reference, key, now)
        # Ages agree after every call, not only at the end.
        for key in KEYS:
            assert clock.age(key, now) == _reference_age(reference, key, now)
    assert len(clock) == len(reference)
    for key in KEYS:
        assert clock.age(key, query_at) == _reference_age(reference, key, query_at)
    for subset in (KEYS, KEYS[:2], KEYS[3:], ()):
        expected = min(
            (_reference_age(reference, key, query_at) for key in subset),
            default=float("inf"),
        )
        assert clock.freshest_age(subset, query_at) == expected


def test_old_digest_does_not_rejuvenate():
    clock = StalenessClock()
    clock.note_many(["a", "b"], 50.0)
    clock.note_many(["a", "c"], 20.0)  # an older replication digest
    assert clock.age("a", 60.0) == 10.0
    assert clock.age("b", 60.0) == 10.0
    assert clock.age("c", 60.0) == 40.0


def test_bulk_stamp_after_single_note_keeps_newer_key():
    clock = StalenessClock()
    clock.note("a", 70.0)
    clock.note_many(["a", "b"], 40.0)
    assert clock.age("a", 80.0) == 10.0
    assert clock.age("b", 80.0) == 40.0
    clock.note_many(["a", "b"], 75.0)
    assert clock.age("a", 80.0) == 5.0
    assert clock.age("b", 80.0) == 5.0


def test_bulk_stamp_accepts_a_generator():
    clock = StalenessClock()
    clock.note_many((key for key in KEYS), 3.0)
    assert len(clock) == len(KEYS)
    assert clock.freshest_age(KEYS, 4.0) == 1.0
