"""Batch runner: discovery, fan-out, error tolerance, summary."""

import json

import pytest

from repro.scenario import (
    ScenarioError,
    discover_specs,
    render_batch_summary,
    run_batch,
    run_spec_file,
)

TINY_A = """\
name = "tiny-a"
horizon = 0.005
placement = "rn"
[topology]
network = "1d"
[[jobs]]
app = "nn"
[jobs.params]
iters = 2
"""

TINY_B = """\
name = "tiny-b"
horizon = 0.005
placement = "rr"
[topology]
network = "1d"
[[jobs]]
app = "lammps"
[jobs.params]
iters = 2
[[traffic]]
nranks = 4
interval_s = 0.001
"""


@pytest.fixture()
def spec_dir(tmp_path):
    (tmp_path / "a.toml").write_text(TINY_A)
    (tmp_path / "b.toml").write_text(TINY_B)
    (tmp_path / "notes.txt").write_text("not a spec")
    return tmp_path


def test_discovery_is_sorted_and_filtered(spec_dir):
    assert [p.name for p in discover_specs(spec_dir)] == ["a.toml", "b.toml"]
    with pytest.raises(ScenarioError, match="not a directory"):
        discover_specs(spec_dir / "nope")


def test_batch_over_two_specs(spec_dir):
    batch = run_batch(spec_dir)
    assert [r["scenario"] for r in batch.results] == ["tiny-a", "tiny-b"]
    assert not batch.failures
    for r in batch.results:
        apps = [j for j in r["jobs"] if not j["background"]]
        assert all(j["finished"] for j in apps)
    summary = render_batch_summary(batch)
    assert "tiny-a" in summary and "tiny-b" in summary
    assert "2 scenario(s), 0 failure(s)" in summary


def test_batch_parallel_workers_match_sequential(spec_dir):
    seq = run_batch(spec_dir, workers=1)
    par = run_batch(spec_dir, workers=2)
    assert seq.results == par.results  # same sims, same order, same numbers


def test_broken_spec_becomes_error_row(spec_dir):
    (spec_dir / "c.toml").write_text("[[jobs]]\nbanana = 1\n")
    batch = run_batch(spec_dir)
    assert len(batch.results) == 3 and len(batch.failures) == 1
    (failure,) = batch.failures
    assert failure["scenario"] == "c"
    assert "banana" in failure["error"]
    assert "ERROR" in render_batch_summary(batch)


def test_run_spec_file_catches_crashes(tmp_path):
    p = tmp_path / "x.toml"
    p.write_text("garbage = [")
    rec = run_spec_file(p)
    assert "error" in rec and rec["path"] == str(p)


def test_write_json_report(spec_dir, tmp_path):
    batch = run_batch(spec_dir)
    out = tmp_path / "report.json"
    batch.write_json(out)
    data = json.loads(out.read_text())
    assert {r["scenario"] for r in data["scenarios"]} == {"tiny-a", "tiny-b"}


def test_empty_directory_is_an_error(tmp_path):
    with pytest.raises(ScenarioError, match="no .toml/.json"):
        run_batch(tmp_path)


# -- pool_map worker-crash semantics -----------------------------------------

def _double_or_die(n):
    """Pool worker for the crash tests: negative items kill the process."""
    if n < 0:
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    return n * 2


def test_pool_map_turns_a_dead_worker_into_a_per_item_result():
    from repro.scenario import pool_map

    out = pool_map(_double_or_die, [1, -1, 2, 3], workers=2,
                   on_crash=lambda item: {"crashed": item})
    # Innocent bystanders succeed; only the killer maps through
    # on_crash -- and results stay in input order.
    assert out == [2, {"crashed": -1}, 4, 6]


def test_pool_map_without_on_crash_raises_worker_crashed():
    from repro.pool import WorkerCrashed
    from repro.scenario import pool_map

    with pytest.raises(WorkerCrashed, match="pass on_crash="):
        pool_map(_double_or_die, [1, -1, 2], workers=2)


def _log_start_then_double_or_die(log, n):
    """Append ``<item> <pid>`` to ``log`` at each start, then work 0.3 s
    (negative items kill their worker instead)."""
    import os
    import time

    with open(log, "a") as fh:
        fh.write(f"{n} {os.getpid()}\n")
    time.sleep(0.3)
    return _double_or_die(n)


def test_pool_map_crash_reruns_only_the_killer_and_keeps_its_workers(tmp_path):
    from functools import partial

    from repro.scenario import pool_map

    log = tmp_path / "starts.log"
    out = pool_map(partial(_log_start_then_double_or_die, str(log)),
                   [1, -1, 2, 3, 4], workers=2,
                   on_crash=lambda item: {"crashed": item})
    assert out == [2, {"crashed": -1}, 4, 6, 8]
    starts = [line.split() for line in log.read_text().splitlines()]
    items = sorted(int(item) for item, _ in starts)
    # The killer runs twice (once re-run); every other item exactly once.
    assert items == [-1, -1, 1, 2, 3, 4]
    # The innocent items ran on the two first workers plus one respawn,
    # not on a fresh process each.
    assert len({pid for item, pid in starts if item != "-1"}) <= 3


_SEEN_BY_WORKERS = "as imported"


def _read_module_global(_):
    return _SEEN_BY_WORKERS


def test_pool_map_workers_are_spawned_not_forked(monkeypatch):
    import sys

    from repro.scenario import pool_map

    monkeypatch.setattr(sys.modules[__name__], "_SEEN_BY_WORKERS",
                        "changed in the parent")
    # A spawned worker re-imports this module; a forked one would see
    # the parent's change.
    assert pool_map(_read_module_global, [0, 1], workers=2) == \
        ["as imported", "as imported"]


def test_pool_map_single_worker_stays_in_process():
    from repro.scenario import pool_map

    calls = []

    def tracked(n):
        calls.append(n)
        return n

    assert pool_map(tracked, [1, 2, 3], workers=1) == [1, 2, 3]
    assert calls == [1, 2, 3]  # in-process: closures are fine


def test_worker_pool_takes_submits_from_many_threads():
    """The service submits from HTTP handler threads while its monitor
    drives the pool: no submit may be lost or run twice."""
    import operator
    import sys
    import threading
    import time

    from repro.pool import WorkerPool

    keys = [(t, i) for t in range(4) for i in range(25)]
    done: dict = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(3) as pool:  # more workers than this host's cores
            def submit_all(t):
                for i in range(25):
                    pool.submit((t, i), operator.neg, 100 * t + i)

            threads = [threading.Thread(target=submit_all, args=(t,))
                       for t in range(4)]
            for th in threads:
                th.start()
            deadline = time.monotonic() + 60.0
            while len(done) < len(keys) and time.monotonic() < deadline:
                for kind, key, value in pool.step(timeout=1.0):
                    if kind != "start":
                        assert kind == "done" and key not in done
                        done[key] = value
            for th in threads:
                th.join(timeout=10.0)
                assert not th.is_alive()
            assert pool.counts() == {"alive": 3, "busy": 0}
    finally:
        sys.setswitchinterval(old)
    assert done == {(t, i): -(100 * t + i) for t, i in keys}
