"""SequentialEngine semantics."""

import pytest

from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP
from repro.pdes.sequential import SequentialEngine


class Recorder(LP):
    """Records (time, kind, data) of every event it handles."""

    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def handle(self, event: Event) -> None:
        self.seen.append((event.time, event.kind, event.data))


class Chainer(LP):
    """Schedules a follow-up event to itself until a count is exhausted."""

    __slots__ = ("remaining", "times")

    def __init__(self, remaining: int):
        super().__init__()
        self.remaining = remaining
        self.times = []

    def handle(self, event: Event) -> None:
        self.times.append(event.time)
        if self.remaining > 0:
            self.remaining -= 1
            self.engine.schedule(0.5, self.lp_id, "tick")


def test_events_processed_in_time_order():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    for t in (3.0, 1.0, 2.0):
        eng.schedule_at(t, rec.lp_id, "e", t)
    eng.run()
    assert [s[0] for s in rec.seen] == [1.0, 2.0, 3.0]


def test_priority_breaks_simultaneous_events():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    eng.schedule_at(1.0, rec.lp_id, "late", None, priority=Priority.WAKEUP)
    eng.schedule_at(1.0, rec.lp_id, "early", None, priority=Priority.CONTROL)
    eng.run()
    assert [s[1] for s in rec.seen] == ["early", "late"]


def test_fifo_within_same_time_and_priority():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    for i in range(5):
        eng.schedule_at(1.0, rec.lp_id, "e", i)
    eng.run()
    assert [s[2] for s in rec.seen] == [0, 1, 2, 3, 4]


def test_run_until_horizon_leaves_future_events():
    eng = SequentialEngine()
    ch = Chainer(100)
    eng.register(ch)
    eng.schedule_at(0.1, ch.lp_id, "tick")
    eng.run(until=2.0)
    assert eng.now == pytest.approx(2.0)
    assert all(t <= 2.0 for t in ch.times)
    assert not eng.empty()


def test_run_drained_advances_clock_to_horizon():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    eng.schedule_at(0.5, rec.lp_id, "e")
    eng.run(until=10.0)
    assert eng.now == pytest.approx(10.0)
    assert eng.empty()


def test_max_events_budget():
    eng = SequentialEngine()
    ch = Chainer(1000)
    eng.register(ch)
    eng.schedule_at(0.1, ch.lp_id, "tick")
    eng.run(max_events=10)
    assert eng.events_processed == 10


def test_cannot_schedule_into_the_past():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)

    class Bad(LP):
        def handle(self, event):
            self.engine.schedule_at(event.time - 1.0, self.lp_id, "x")

    bad = Bad()
    eng.register(bad)
    eng.schedule_at(5.0, bad.lp_id, "go")
    with pytest.raises(ValueError, match="past"):
        eng.run()


def test_unknown_destination_rejected():
    eng = SequentialEngine()
    with pytest.raises(ValueError, match="unknown destination"):
        eng.schedule_at(1.0, 0, "x")


def test_peek_time():
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    assert eng.peek_time() == float("inf")
    eng.schedule_at(3.0, rec.lp_id, "e")
    eng.schedule_at(1.5, rec.lp_id, "e")
    assert eng.peek_time() == 1.5


def test_now_tracks_current_event_time():
    eng = SequentialEngine()
    times = []

    class Probe(LP):
        def handle(self, event):
            times.append(self.engine.now)

    p = Probe()
    eng.register(p)
    eng.schedule_at(1.0, p.lp_id, "a")
    eng.schedule_at(2.5, p.lp_id, "b")
    eng.run()
    assert times == [1.0, 2.5]


def test_schedule_fast_orders_like_schedule_at():
    """The hot-path scheduler interleaves correctly with the checked one."""
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    eng.schedule_at(2.0, rec.lp_id, "b")
    eng.schedule_fast(1.0, rec.lp_id, "a")
    eng.schedule_fast(3.0, rec.lp_id, "c")
    eng.run()
    assert [s[1] for s in rec.seen] == ["a", "b", "c"]
    assert eng.events_processed == 3


def test_schedule_fast_skips_validation():
    """Documented contract: no destination or past-time re-checks."""
    eng = SequentialEngine()
    rec = Recorder()
    eng.register(rec)
    # An invalid destination is NOT rejected at scheduling time.
    eng.schedule_fast(1.0, 99, "x")
    with pytest.raises(IndexError):
        eng.run()
