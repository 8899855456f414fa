"""The garbage-collector scopes around building and stepping a model.

``repro.pdes.collector`` pauses the collector while a model is built
and freezes the built model while a step runs.  Whatever happens --
a normal return, a raise, a caller with its own policy, several
threads -- the process's collector state after a scoped call must be
what it was before, a dropped run's model must still be reclaimed, and
results must not depend on the scopes at all.
"""

import gc
import json
import sys
import threading
import weakref

import pytest

from repro.pdes import collector
from repro.registry.topologies import TopologySpec, build_topology
from repro.scenario import build_manager, parse_scenario, run_scenario
from repro.union import session as session_mod

#: The paper's Workload3 (two ML skeletons, three HPC apps) on the mini
#: 1D dragonfly, cut to a horizon that keeps the test quick.
WORKLOAD3 = {
    "name": "collector-workload3",
    "seed": 7,
    "horizon": 2e-4,
    "routing": "adp",
    "placement": "rg",
    "topology": {"network": "1d", "scale": "mini"},
    "jobs": [{"app": app} for app in
             ("cosmoflow", "alexnet", "nekbone", "milc", "nn")],
}

#: A small spec whose jobs finish well inside the horizon.
FINISHING = {
    "name": "collector-finishing",
    "seed": 3,
    "horizon": 0.01,
    "topology": {"network": "1d", "scale": "mini"},
    "jobs": [{"app": "nn", "nranks": 8, "params": {"dims": [2, 2, 2]}}],
}


def state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.fixture(autouse=True)
def collector_untouched():
    """Every test starts and must end with the collector enabled and
    nothing frozen."""
    assert state() == (True, 0)
    yield
    try:
        assert state() == (True, 0)
    finally:
        gc.enable()
        gc.unfreeze()


def spec(mapping, **overrides):
    return parse_scenario(dict(mapping, **overrides))


def scenario_json(mapping) -> str:
    return json.dumps(run_scenario(spec(mapping)).to_json_dict(),
                      sort_keys=True)


# -- the two scopes ------------------------------------------------------------


def test_building_pauses_the_collector_and_restores_it():
    with collector.building():
        assert state() == (False, 0)
    assert state() == (True, 0)


def test_running_freezes_what_exists_and_unfreezes_it():
    with collector.running():
        assert gc.isenabled() and gc.get_freeze_count() > 0
    assert state() == (True, 0)


@pytest.mark.parametrize("scope", [collector.building, collector.running])
def test_a_scope_restores_the_collector_when_its_body_raises(scope):
    with pytest.raises(ZeroDivisionError):
        with scope():
            1 / 0
    assert state() == (True, 0)


def test_scopes_nest_without_touching_the_outer_policy():
    with collector.building():
        with collector.running(), collector.building():
            assert state() == (False, 0)
        assert state() == (False, 0)
    with collector.running():
        frozen = gc.get_freeze_count()
        with collector.building(), collector.running():
            assert state() == (True, frozen)
        assert state() == (True, frozen)


# -- the call sites --------------------------------------------------------------


def test_build_topology_builds_with_the_collector_paused(monkeypatch):
    seen = []
    build = TopologySpec.build

    def spy(self, params):
        seen.append(state())
        return build(self, params)

    monkeypatch.setattr(TopologySpec, "build", spy)
    topo = build_topology({"type": "dragonfly1d", "scale": "mini"})
    assert topo.n_nodes == 144
    assert seen == [(False, 0)]


def test_session_build_and_step_run_in_their_scopes(monkeypatch):
    seen = {}
    start = session_mod.SimMPI.start
    step = session_mod.SimMPI.step

    def spy_start(self):  # step() calls it again, as a no-op
        seen.setdefault("build", state())
        return start(self)

    def spy_step(self, until=float("inf")):
        seen["step"] = state()
        return step(self, until=until)

    monkeypatch.setattr(session_mod.SimMPI, "start", spy_start)
    monkeypatch.setattr(session_mod.SimMPI, "step", spy_step)
    parsed = spec(FINISHING)
    build_manager(parsed).session().run(parsed.horizon)
    assert seen["build"] == (False, 0)
    enabled, frozen = seen["step"]
    assert enabled and frozen > 0


def test_a_build_that_raises_restores_the_collector(monkeypatch):
    def start(self):
        raise ZeroDivisionError("the launch gives up")

    session = build_manager(spec(FINISHING)).session()
    with monkeypatch.context() as m:
        m.setattr(session_mod.SimMPI, "start", start)
        with pytest.raises(ZeroDivisionError, match="the launch gives up"):
            session.build()
    assert state() == (True, 0)
    session = build_manager(spec(FINISHING)).session()
    session.build()
    with pytest.raises(RuntimeError, match="already built"):
        session.build()
    assert state() == (True, 0)


def test_a_step_whose_job_end_callback_raises_restores_the_collector():
    parsed = spec(FINISHING)
    session = build_manager(parsed).session()
    session.build()
    assert state() == (True, 0)

    def on_job_end(result):
        raise ZeroDivisionError("the callback gives up")

    session.mpi.job_end_callback = on_job_end
    with pytest.raises(ZeroDivisionError, match="the callback gives up"):
        session.step(parsed.horizon)
    assert state() == (True, 0)


def test_the_next_build_reclaims_a_dropped_runs_model():
    """A step freezes everything, a finished run's garbage included, and
    moves it to the oldest generation, which no full collection may
    reach before the next run freezes it again.  So the next build
    starts with one full collection: back-to-back runs never hold more
    than one dropped model."""
    parsed = spec(FINISHING)
    session = build_manager(parsed).session()
    session.run(parsed.horizon)
    model = weakref.ref(session.fabric)
    del session
    assert model() is not None  # a reference cycle: only a full pass frees it
    build_manager(parsed).session().build()
    assert model() is None


# -- the caller's own policy --------------------------------------------------------


def test_a_caller_held_disable_is_left_alone():
    gc.disable()
    try:
        scenario_json(FINISHING)
        assert state() == (False, 0)
    finally:
        gc.enable()


def test_a_caller_held_freeze_is_left_alone():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        scenario_json(FINISHING)
        assert state() == (True, frozen)
    finally:
        gc.unfreeze()


def test_threads_interleaving_build_and_step_leave_nothing_behind():
    """More threads than cores, switching every few bytecodes: however
    the scopes' enter and exit interleave, the collector ends enabled
    with nothing frozen."""
    n_threads = 3
    barrier = threading.Barrier(n_threads, timeout=60)
    finished = []
    errors = []

    def work():
        try:
            barrier.wait()
            for _ in range(3):
                parsed = spec(FINISHING, engine={"type": "sequential"})
                session = build_manager(parsed).session()
                session.build()
                for k in range(1, 5):
                    session.step(parsed.horizon * k / 4)
                finished.append(session.finalize().apps[0].result.finished)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert finished == [True] * (3 * n_threads)
    assert state() == (True, 0)


# -- results never see the collector -------------------------------------------------


def test_workload3_json_is_identical_with_and_without_the_scopes():
    scoped = scenario_json(WORKLOAD3)
    gc.disable()  # a caller-held disable bypasses both scopes
    try:
        bypassed = scenario_json(WORKLOAD3)
    finally:
        gc.enable()
    assert scoped == bypassed
