"""Cross-engine parity: every engine commits the identical events.

PHOLD (continuous timestamps, per-LP RNG) is the canonical
cross-validation model: under a fixed seed every registered engine
preset -- and the Time Warp reference oracle kept in ``tests/pdes`` --
must commit exactly the same event set: same per-LP counts, same
timestamp checksums, same totals.  Then the contract every preset's
engine keeps towards the layers above it (the four hooks, ``describe``,
the never-silent fallback, an accurate ``events_processed`` after a
handler raised).  The last part pins the conservative engine's
budget-stop and ``until`` semantics when the horizon lands
*mid-window*: events at or before the horizon commit, later ones stay
pending, and the engine stays resumable.
"""

import pytest

from repro.pdes.conservative import ConservativeEngine
from repro.pdes.event import Event
from repro.pdes.lp import LP
from repro.pdes.sequential import SequentialEngine

from tests.pdes.phold import build_phold, fingerprint
from tests.pdes.presets import N_LPS, PRESETS
from tests.pdes.timewarp import TimeWarpEngine


def _run(engine, until=40.0, n_lps=10):
    lps = build_phold(engine, n_lps=n_lps, seed=17)
    engine.run(until=until)
    return fingerprint(lps), engine.events_processed


@pytest.mark.parametrize("make", [
    lambda: ConservativeEngine(lookahead=0.5, n_partitions=3),
    lambda: ConservativeEngine(lookahead=0.25, n_partitions=5),
    lambda: TimeWarpEngine(gvt_interval=16),
])
def test_oracle_and_wide_windows_commit_identical_event_set(make):
    """Windows wide enough to hold many events each (the presets below
    derive a sub-microsecond lookahead from the fabric) and the
    optimistic oracle."""
    assert _run(make()) == _run(SequentialEngine())


@pytest.mark.parametrize("make, spec", PRESETS)
def test_every_preset_commits_identical_event_set(make, spec):
    assert _run(make(), n_lps=N_LPS) == _run(SequentialEngine(), n_lps=N_LPS)


# -- the contract towards the layers above -----------------------------------

#: Every key Engine.describe() may return (docs/engines.md).
DESCRIBE_KEYS = {"partitions", "lookahead", "windows", "scheme",
                 "backend", "backend_reason", "fabric", "fabric_reason",
                 "ranks", "ranks_reason"}


HOOKS = ("adopt_fabric", "adopt_ranks", "bind_telemetry", "describe")


@pytest.mark.parametrize("make, spec", PRESETS)
def test_every_preset_answers_the_four_hooks(make, spec):
    from repro.telemetry import Telemetry

    eng = make()
    assert all(callable(getattr(eng, hook)) for hook in HOOKS)
    # ... also on an engine no fabric or session was built on.
    t = Telemetry()
    eng.bind_telemetry(t)
    info = eng.describe()
    assert set(info) <= DESCRIBE_KEYS
    windowed = spec.axes["windowing"] == "yawns"
    assert ("windows" in info) == windowed == spec.partitioned
    assert (t.get("pdes.conservative.windows") is not None) == windowed
    assert ("backend" in info) == (spec.axes["backend"] == "compiled")
    # ... and where ranks could not run natively, they say why.
    if "ranks" in info:
        assert info["ranks"] == "python" and info["ranks_reason"]


@pytest.mark.parametrize("make, spec", [
    p for p in PRESETS if p.values[1].axes["backend"] == "compiled"])
def test_compilerless_host_gets_a_plain_engine_and_a_reason(make, spec,
                                                            monkeypatch):
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    eng = make()
    assert type(eng) in (SequentialEngine, ConservativeEngine)
    assert eng.backend == "python" and eng.backend_reason
    assert eng.fabric == "python" and eng.fabric_reason


class _RaisesOnThird(LP):
    def __init__(self):
        super().__init__()
        self.handled = 0

    def handle(self, event: Event) -> None:
        self.handled += 1
        if self.handled == 3:
            raise ZeroDivisionError("third event")


@pytest.mark.parametrize("make, spec", PRESETS)
def test_events_processed_survives_a_raising_handler(make, spec):
    """The count stays accurate on every exit path: a handler raising
    mid-window must not lose the events that window already committed
    (the windowed engines and the kernel's windowed loop used to report
    0 here), and the engine stays resumable."""
    eng = make()
    lp = _RaisesOnThird()
    eng.register(lp, partition=0)
    # Closer together than any lookahead: one window holds all five.
    for k in range(5):
        eng.schedule_at(1.0 + k * 1e-9, lp.lp_id, "tick")
    with pytest.raises(ZeroDivisionError):
        eng.run(until=5.0)
    assert eng.events_processed == lp.handled - 1 == 2
    if spec.partitioned:
        assert sum(eng.committed_by_partition) == 2
    eng.run(until=5.0)
    assert lp.handled == 5
    assert eng.events_processed == 4


def test_conservative_per_partition_commits_sum_to_total():
    eng = ConservativeEngine(lookahead=0.5, n_partitions=4)
    _run(eng)
    assert sum(eng.committed_by_partition) == eng.events_processed
    assert eng.max_window_events >= 1
    assert eng.windows_executed >= 1


class _Recorder(LP):
    """Collects the timestamps of every event it handles."""

    __slots__ = ("times",)

    def __init__(self):
        super().__init__()
        self.times = []

    def handle(self, event: Event) -> None:
        self.times.append(event.time)


def _two_partition_recorders():
    """Two recorder LPs, one per partition, with a known event ladder.

    lookahead 1.0 puts the events at t = 0.5, 0.8, 1.1, 1.6, 2.4 into
    windows [0.5, 1.5) and [1.6, 2.6): a horizon or budget inside the
    first window cuts it mid-flight.
    """
    eng = ConservativeEngine(lookahead=1.0, n_partitions=2)
    a, b = _Recorder(), _Recorder()
    eng.register(a, partition=0)
    eng.register(b, partition=1)
    for t, lp in ((0.5, a), (0.8, b), (1.1, a), (1.6, b), (2.4, a)):
        eng.schedule_at(t, lp.lp_id, "tick")
    return eng, a, b


def test_until_mid_window_commits_only_up_to_horizon():
    eng, a, b = _two_partition_recorders()
    # Horizon 1.0 lands inside the first window [0.5, 1.5): the event at
    # 1.1 belongs to that window but lies beyond the horizon.
    end = eng.run(until=1.0)
    assert a.times == [0.5]
    assert b.times == [0.8]
    assert eng.events_processed == 2
    assert end == pytest.approx(1.0)  # clock advances to the horizon
    # The cut was not a drop: resuming commits the rest in order.
    eng.run(until=10.0)
    assert a.times == [0.5, 1.1, 2.4]
    assert b.times == [0.8, 1.6]
    assert eng.events_processed == 5


def test_event_exactly_at_horizon_commits():
    eng, a, b = _two_partition_recorders()
    eng.run(until=1.1)
    assert a.times == [0.5, 1.1]
    assert b.times == [0.8]


def test_budget_stop_mid_window_keeps_clock_and_resumes():
    eng, a, b = _two_partition_recorders()
    end = eng.run(until=10.0, max_events=2)
    assert eng.events_processed == 2
    # A budget stop keeps the last committed time (no horizon advance).
    assert end == pytest.approx(0.8)
    eng.run(until=10.0)
    assert a.times == [0.5, 1.1, 2.4]
    assert b.times == [0.8, 1.6]
    assert eng.events_processed == 5


def test_budget_stop_matches_sequential_prefix():
    """The first N committed events are the same on both engines."""
    seq = SequentialEngine()
    ref = build_phold(seq, n_lps=6, seed=23)
    seq.run(until=50.0, max_events=40)
    con = ConservativeEngine(lookahead=0.5, n_partitions=3)
    lps = build_phold(con, n_lps=6, seed=23)
    con.run(until=50.0, max_events=40)
    assert con.events_processed == seq.events_processed == 40
    assert fingerprint(lps) == fingerprint(ref)


def test_control_path_is_contract_exempt():
    """schedule_control may cross partitions below the lookahead; the
    normal path raises for the identical event."""

    class Fanout(LP):
        def __init__(self):
            super().__init__()
            self.got = 0

        def handle(self, event):
            self.got += 1
            if event.kind == "fan":
                # Zero-delay cross-partition control event: the driver
                # pattern (a launch fanning rank starts out at t=now).
                self.engine.schedule_control(self.engine.now, 1 - self.lp_id, "go")

    eng = ConservativeEngine(lookahead=1.0, n_partitions=2)
    a, b = Fanout(), Fanout()
    eng.register(a, partition=0)
    eng.register(b, partition=1)
    eng.schedule_at(0.5, a.lp_id, "fan")
    eng.run()
    assert (a.got, b.got) == (1, 1)

    eng2 = ConservativeEngine(lookahead=1.0, n_partitions=2)
    class Cheater(Fanout):
        def handle(self, event):
            self.engine.schedule_at(self.engine.now, 1 - self.lp_id, "go")
    a2, b2 = Cheater(), Cheater()
    eng2.register(a2, partition=0)
    eng2.register(b2, partition=1)
    eng2.schedule_at(0.5, a2.lp_id, "fan")
    with pytest.raises(RuntimeError, match="lookahead violation"):
        eng2.run()


def test_explicit_partition_register_overrides_partition_fn():
    eng = ConservativeEngine(lookahead=1.0, n_partitions=2)
    a = _Recorder()
    eng.register(a, partition=1)  # partition_fn would say 0
    assert eng.partition_of(a.lp_id) == 1
    with pytest.raises(ValueError, match="partition"):
        eng.register(_Recorder(), partition=7)
