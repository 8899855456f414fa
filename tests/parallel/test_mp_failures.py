"""Failure modes of multi-process execution.

Distribution must never trade determinism for silence: a worker that
dies mid-run fails the whole simulation loudly (naming the partition,
never hanging on a dead pipe), and event budgets keep single-process
semantics rather than approximating them across processes.
"""

import os
import signal

import pytest

from repro.network.dragonfly import Dragonfly1D
from repro.parallel.mp import WorkerFailure
from repro.union.manager import Job, WorkloadManager
from repro.workloads.nearest_neighbor import nearest_neighbor
from repro.workloads.uniform_random import uniform_random


def _manager(engine):
    mgr = WorkloadManager(
        Dragonfly1D.mini(), routing="adp", placement="rn", seed=4,
        engine=engine,
    )
    mgr.add_job(Job("nn", 8, program=nearest_neighbor,
                    params={"dims": (2, 2, 2), "iters": 2, "msg_bytes": 8192}))
    mgr.add_job(Job("ur", 8, program=uniform_random,
                    params={"iters": 3, "msg_bytes": 4096}))
    return mgr


def test_sigkilled_worker_fails_loudly_naming_partition():
    """SIGKILL a worker mid-run: the next window exchange raises a
    WorkerFailure naming the dead partition instead of hanging."""
    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "mp"})
    session = mgr.session()
    session.build()
    session.step(0.0002)
    eng = session.engine
    assert eng.execution_mode == "distributed"
    victim = eng._backend.processes[1]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30)
    assert not victim.is_alive()
    with pytest.raises(WorkerFailure, match="partition 1"):
        session.step(1.0)
    # WorkerFailure is a RuntimeError, so generic engine-failure
    # handling upstream catches it too.
    assert issubclass(WorkerFailure, RuntimeError)
    # The backend is torn down; resuming reports that cleanly.
    with pytest.raises(RuntimeError, match="shut down"):
        session.step(1.0)
    # finalize() after the failure must not hang either (shutdown is
    # idempotent and the workers are already gone).
    eng.close()


def test_max_events_budget_matches_single_process():
    """A budgeted first run stays local and stops on the identical
    event count and clock as the plain conservative engine."""
    ref_mgr = _manager({"type": "conservative", "partitions": 3})
    ref_session = ref_mgr.session()
    ref_session.build()
    ref_end = ref_session.engine.run(until=1.0, max_events=300)

    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "inline"})
    session = mgr.session()
    session.build()
    eng = session.engine
    end = eng.run(until=1.0, max_events=300)
    assert eng.execution_mode == "local"
    assert "max_events budget" in eng.fallback_reason
    assert eng.events_processed == ref_session.engine.events_processed == 300
    assert end == ref_end
    # The budget decision is sticky: later unbudgeted runs continue on
    # the same single-process heap.
    eng.run(until=1.0)
    assert eng.execution_mode == "local"
    ref_session.engine.run(until=1.0)
    assert eng.events_processed == ref_session.engine.events_processed
    assert eng.now == ref_session.engine.now


def test_max_events_after_distributed_start_raises():
    mgr = _manager({"type": "mp-conservative", "partitions": 3,
                    "backend": "inline"})
    session = mgr.session()
    session.build()
    session.step(0.0002)
    eng = session.engine
    assert eng.execution_mode == "distributed"
    with pytest.raises(RuntimeError, match="max_events budget cannot be "
                                           "applied after distributed"):
        eng.run(until=1.0, max_events=10)
    # The failed call must not have corrupted the run: stepping on to
    # the horizon still works.
    session.step(1.0)
    out = session.finalize()
    assert out.app("nn").result.finished


def test_mid_horizon_step_budget_semantics_match():
    """step(t1) then step(horizon) commits the same totals as one run,
    for the distributed path (stop-at-until is a window-exchange
    boundary condition, not an approximation)."""
    whole = _manager({"type": "mp-conservative", "partitions": 3,
                      "backend": "inline"}).run(until=1.0)
    stepped_mgr = _manager({"type": "mp-conservative", "partitions": 3,
                            "backend": "inline"})
    session = stepped_mgr.session()
    session.build()
    reached = session.step(0.00025)
    assert reached <= 0.00025
    assert session.engine.now <= 0.00025
    session.step(1.0)
    out = session.finalize()
    assert (out.fabric.engine.events_processed
            == whole.fabric.engine.events_processed)
    assert out.fabric.engine.now == whole.fabric.engine.now
    for name in ("nn", "ur"):
        assert (out.app(name).result.avg_latency()
                == whole.app(name).result.avg_latency())
