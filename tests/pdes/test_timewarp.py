"""TimeWarpEngine: rollback correctness and equivalence with sequential."""

import pytest

from repro.pdes.event import Event
from repro.pdes.lp import LP
from repro.pdes.sequential import SequentialEngine

from tests.pdes.phold import build_phold, fingerprint
from tests.pdes.timewarp import TimeWarpEngine


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_matches_sequential_on_phold(seed):
    seq = SequentialEngine()
    ref_lps = build_phold(seq, n_lps=6, seed=seed)
    seq.run(until=40.0)

    tw = TimeWarpEngine(gvt_interval=8)
    tw_lps = build_phold(tw, n_lps=6, seed=seed)
    tw.run(until=40.0)

    assert fingerprint(tw_lps) == fingerprint(ref_lps)
    assert tw.events_processed == seq.events_processed


def test_rollbacks_actually_happen():
    """Round-robin execution of PHOLD with tight coupling must speculate."""
    tw = TimeWarpEngine(gvt_interval=4)
    build_phold(tw, n_lps=8, seed=5, min_delay=0.1, mean_delay=2.0)
    tw.run(until=60.0)
    assert tw.rollbacks > 0
    assert tw.anti_messages >= 0
    assert tw.events_executed >= tw.events_processed


def test_straggler_triggers_rollback():
    """Deterministic two-LP scenario with a manufactured straggler.

    LP A runs far ahead of LP B (A has many early events, B has one late
    event that sends into A's past).
    """

    class Counter(LP):
        def __init__(self):
            super().__init__()
            self.values = []

        def handle(self, event):
            self.values.append(event.time)
            if event.kind == "poke":
                # B pokes A in A's past relative to A's optimistic progress.
                self.engine.schedule(0.5, 0, "late")

        def save_state(self):
            return list(self.values)

        def load_state(self, state):
            self.values = state

    tw = TimeWarpEngine(gvt_interval=2)
    a, b = Counter(), Counter()
    tw.register(a)
    tw.register(b)
    for i in range(10):
        tw.schedule_at(1.0 + i, a.lp_id, "tick")
    tw.schedule_at(2.25, b.lp_id, "poke")  # lands at A at t=2.75
    tw.run()
    # The final trajectory must be identical to sequential execution.
    seq = SequentialEngine()
    sa, sb = Counter(), Counter()
    seq.register(sa)
    seq.register(sb)
    for i in range(10):
        seq.schedule_at(1.0 + i, sa.lp_id, "tick")
    seq.schedule_at(2.25, sb.lp_id, "poke")
    seq.run()
    assert a.values == sa.values
    assert b.values == sb.values


def test_gvt_advances_and_fossils_collected():
    tw = TimeWarpEngine(gvt_interval=4)
    build_phold(tw, n_lps=4, seed=13)
    tw.run(until=30.0)
    assert tw.gvt > 0
    # After finalize, all history is fossil-collected.
    for rt in tw._rt:
        assert rt.processed == []


def test_lp_without_state_saving_rejected():
    class NoState(LP):
        def handle(self, event):
            pass

    tw = TimeWarpEngine()
    lp = NoState()
    tw.register(lp)
    tw.schedule_at(1.0, lp.lp_id, "x")
    with pytest.raises(AttributeError, match="save_state"):
        tw.run()


def test_invalid_gvt_interval():
    with pytest.raises(ValueError, match="gvt_interval"):
        TimeWarpEngine(gvt_interval=0)


def test_horizon_respected():
    tw = TimeWarpEngine(gvt_interval=8)
    lps = build_phold(tw, n_lps=4, seed=2)
    tw.run(until=15.0)
    seq = SequentialEngine()
    ref = build_phold(seq, n_lps=4, seed=2)
    seq.run(until=15.0)
    assert fingerprint(lps) == fingerprint(ref)
