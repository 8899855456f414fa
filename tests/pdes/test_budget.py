"""``max_events`` budget edge cases shared by all three engines.

Regression: ``max_events=0`` used to be silently treated as *unlimited*
(the ``budget > 0`` decrement guard never fired), so a caller asking for
zero events got the whole simulation instead.  It must commit nothing
and leave the clock untouched.
"""

import pytest

from repro.pdes.conservative import ConservativeEngine
from repro.pdes.sequential import SequentialEngine

from tests.pdes.phold import build_phold, fingerprint
from tests.pdes.timewarp import TimeWarpEngine


ENGINES = [
    pytest.param(SequentialEngine, id="sequential"),
    pytest.param(lambda: ConservativeEngine(lookahead=0.5, n_partitions=2), id="conservative"),
    pytest.param(lambda: TimeWarpEngine(gvt_interval=8), id="timewarp"),
]


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_max_events_zero_commits_nothing(engine_factory):
    eng = engine_factory()
    lps = build_phold(eng, n_lps=4, seed=3)
    before = fingerprint(lps)
    t = eng.run(until=50.0, max_events=0)
    assert eng.events_processed == 0
    assert t == 0.0
    assert eng.now == 0.0
    assert fingerprint(lps) == before  # no handler ran


@pytest.mark.parametrize("engine_factory", ENGINES)
def test_max_events_zero_then_full_run_is_clean(engine_factory):
    """A zero-budget call must not perturb a subsequent real run."""
    eng = engine_factory()
    lps = build_phold(eng, n_lps=4, seed=3)
    eng.run(until=30.0, max_events=0)
    eng.run(until=30.0)

    ref = SequentialEngine()
    ref_lps = build_phold(ref, n_lps=4, seed=3)
    ref.run(until=30.0)
    assert fingerprint(lps) == fingerprint(ref_lps)


def test_conservative_budget_stop_resets_window_state():
    """A ``max_events`` stop returns from mid-window; the engine must
    not carry executing-window state (``_current_partition`` gates the
    lookahead check in ``_push``) into a later ``run()``, and no stale
    window attribute may survive (the write-only ``_window_end`` the
    seed kept across budget stops is gone entirely)."""
    eng = ConservativeEngine(lookahead=0.5, n_partitions=2)
    lps = build_phold(eng, n_lps=4, seed=7)
    eng.run(until=50.0, max_events=5)
    assert eng.events_processed == 5
    assert eng._current_partition == -1
    assert not hasattr(eng, "_window_end")

    # Resuming after the budget stop must converge to the sequential
    # trajectory (a stale window boundary would misorder the resume).
    eng.run(until=50.0)
    ref = SequentialEngine()
    ref_lps = build_phold(ref, n_lps=4, seed=7)
    ref.run(until=50.0)
    assert fingerprint(lps) == fingerprint(ref_lps)


def test_sequential_budget_stop_keeps_clock_at_last_event():
    eng = SequentialEngine()
    build_phold(eng, n_lps=4, seed=5)
    t = eng.run(until=50.0, max_events=3)
    assert eng.events_processed == 3
    assert 0.0 < t < 50.0  # not advanced to the horizon
