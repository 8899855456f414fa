"""One worker pool: spawned processes, each task handed to a known worker.

The package's only process primitive, under
:func:`repro.scenario.batch.pool_map` and
:class:`repro.service.server.SimulationServer`; standard library only,
so any layer imports it without a cycle.  Workers are
``spawn``-context processes, each with its own pipe.  The parent keeps
the pending FIFO and sends each task to a specific idle worker, so a
death, seen at once through the process sentinel, is charged to exactly
the task that worker held.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Hashable

_CTX = multiprocessing.get_context("spawn")


class WorkerCrashed(RuntimeError):
    """A worker process died (SIGKILL, OOM) while running a task."""


def _serve(conn) -> None:
    """A worker's whole life: reply ``("done", fn(item))`` or ``("error",
    exception)`` to each ``(fn, item)`` until the ``None`` sentinel."""
    with contextlib.suppress(EOFError):  # the parent is gone
        while (task := conn.recv()) is not None:
            fn, item = task
            try:
                reply = ("done", fn(item))
            except Exception as exc:  # noqa: BLE001 - the parent decides
                reply = ("error", exc)
            try:
                conn.send(reply)
            except Exception as exc:  # noqa: BLE001 - the reply did not pickle
                conn.send(("error", RuntimeError(
                    f"{reply[0]} reply does not pickle: {type(exc).__name__}: {exc}")))


class WorkerPool:
    """``workers`` spawned processes fed from one parent-side FIFO.

    :meth:`step` sends queued tasks to idle workers, waits for a reply, a
    death or a :meth:`wake`, and returns ``(kind, key, value)`` events:
    ``start`` (value ``(slot, pid)``), ``done`` (the result), ``error``
    (the exception) and ``died`` (the exit code; the slot respawns).  One
    thread drives :meth:`step`; the other methods are thread-safe.  A
    worker that dies holding no task respawns only within a budget of
    ``3 * workers``, so one that cannot even start does not respawn forever.
    """

    def __init__(self, workers: int) -> None:
        self._procs: list[Any] = [None] * workers
        self._conns: list[Any] = [None] * workers
        self._held: dict[int, Hashable] = {}  # worker slot -> task key
        self._killed: set[int] = set()  # slots cancel() killed: no idle death
        self._pending: deque[tuple[Hashable, Callable, Any]] = deque()
        self._idle_respawns = 3 * workers
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = _CTX.Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)
        for slot in range(workers):
            self._spawn(slot)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def counts(self) -> dict[str, int]:
        """Live (spawned, not yet reaped) and busy worker slots."""
        return {"alive": sum(p is not None for p in self._procs),
                "busy": len(self._held)}

    def submit(self, key: Hashable, fn: Callable, item: Any) -> None:
        """Queue ``fn(item)``; ``fn`` and ``item`` must pickle."""
        with self._lock:
            self._pending.append((key, fn, item))
        self.wake()

    def cancel(self, key: Hashable) -> None:
        """Drop the queued task ``key``, or kill the worker holding it
        (a ``died`` event follows)."""
        with self._lock:
            for task in self._pending:
                if task[0] == key:
                    self._pending.remove(task)
                    return
            for slot, held in self._held.items():
                if held == key:
                    self._killed.add(slot)
                    self._procs[slot].terminate()

    def wake(self) -> None:
        """Make a blocked :meth:`step` return."""
        with contextlib.suppress(BlockingIOError):  # a wake-up is pending
            self._wake_w.send_bytes(b"")

    def step(self, timeout: float | None = None) -> list[tuple[str, Hashable, Any]]:
        """Dispatch, then wait (up to ``timeout``) and collect events."""
        events = []
        with self._lock:
            for slot, proc in enumerate(self._procs):
                if self._pending and proc is not None and slot not in self._held:
                    key, fn, item = self._pending.popleft()
                    with contextlib.suppress(OSError):  # dead: its sentinel tells
                        self._conns[slot].send((fn, item))
                    self._held[slot] = key
                    events.append(("start", key, (slot, proc.pid)))
        ready = wait([self._wake_r, *filter(None, self._conns),
                      *(p.sentinel for p in self._procs if p is not None)],
                     0 if events else timeout)
        while self._wake_r.poll():
            self._wake_r.recv_bytes()
        for slot, (proc, conn) in enumerate(zip(self._procs, self._conns)):
            if conn in ready:
                with contextlib.suppress(EOFError, OSError):  # dead: see below
                    kind, value = conn.recv()
                    with self._lock:
                        events.append((kind, self._held.pop(slot), value))
            if proc is None or proc.sentinel not in ready:
                continue
            proc.join()
            conn.close()
            with self._lock:
                if slot in self._held:
                    events.append(("died", self._held.pop(slot), proc.exitcode))
                elif slot not in self._killed:  # an idle death
                    if not self._idle_respawns:
                        self._procs[slot] = self._conns[slot] = None  # give up
                        continue
                    self._idle_respawns -= 1
                self._killed.discard(slot)
                self._spawn(slot)
        return events

    def close(self, timeout: float = 10.0) -> None:
        """Stop the pool: each worker may finish its current task within
        ``timeout / workers`` seconds before it is terminated."""
        live = [(p, c) for p, c in zip(self._procs, self._conns) if p is not None]
        for _, conn in live:
            with contextlib.suppress(OSError):  # already dead
                conn.send(None)
        for proc, conn in live:
            proc.join(timeout / len(self._procs))
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()
        self._wake_r.close()
        self._wake_w.close()

    def _spawn(self, slot: int) -> None:
        conn, child = _CTX.Pipe()
        proc = _CTX.Process(target=_serve, args=(child,), daemon=True)
        proc.start()
        child.close()
        self._procs[slot], self._conns[slot] = proc, conn
