"""Transport backends for the multi-process conservative engine.

Two interchangeable transports carry the master/worker protocol of
:mod:`repro.parallel.mp.worker`:

``mp`` (default)
    One spawned process per partition, talking over a
    :func:`multiprocessing.Pipe`.  Spawn (not fork) so workers rebuild
    the model from the recipe exactly the way an MPI rank would, and so
    behaviour matches across platforms.
``inline``
    The workers live in this process and every message still makes a
    pickle round trip.  Zero process overhead, full protocol coverage --
    this is what the fuzz harness and most tests drive, and it works
    where process spawning is impossible (daemonic pool workers).

Both share one failure philosophy: a worker that dies or errors
mid-protocol raises :class:`WorkerFailure` naming the partition -- the
run fails loudly, never hangs.
"""

from __future__ import annotations

import multiprocessing
import pickle

_POLL_INTERVAL = 0.2


class WorkerFailure(RuntimeError):
    """A worker process died or reported an error mid-protocol."""


class InlineBackend:
    """In-process workers with full pickle round trips.

    Every request and reply is serialized and deserialized, so recipe
    construction, event shipping and state snapshots are exercised
    exactly as the process backends exercise them -- only the process
    boundary is missing.
    """

    def __init__(self) -> None:
        self._workers: list = []
        self._pending: dict[int, bytes] = {}

    def launch(self, blob: bytes, partitions: int) -> None:
        from repro.parallel.mp.worker import WorkerSession

        # One independent unpickle per worker: separate model instances,
        # exactly as separate processes would build them.
        self._workers = [
            WorkerSession(pickle.loads(blob), p) for p in range(partitions)
        ]

    def send(self, p: int, msg: tuple) -> None:
        self._pending[p] = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)

    def recv(self, p: int) -> tuple:
        msg = pickle.loads(self._pending.pop(p))
        reply = self._workers[p].handle(msg)
        reply = pickle.loads(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        if reply[0] == "error":
            raise WorkerFailure(
                f"mp-conservative worker for partition {p} failed: {reply[1]}"
            )
        return reply

    def shutdown(self) -> None:
        self._workers = []
        self._pending.clear()


class MultiprocessingBackend:
    """Spawned worker processes over pipes (the ``mp`` default)."""

    def __init__(self) -> None:
        self._procs: list = []
        self._conns: list = []

    @property
    def processes(self) -> list:
        """Live worker process handles (test hook for failure injection)."""
        return list(self._procs)

    def launch(self, blob: bytes, partitions: int) -> None:
        from repro.parallel.mp.worker import worker_main

        ctx = multiprocessing.get_context("spawn")
        procs, conns = [], []
        try:
            for p in range(partitions):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main,
                    args=(child, blob, p),
                    name=f"mp-conservative-{p}",
                    daemon=True,
                )
                proc.start()
                child.close()
                procs.append(proc)
                conns.append(parent)
            self._procs, self._conns = procs, conns
            for p in range(partitions):
                reply = self.recv(p)
                if reply[0] != "ready":
                    raise WorkerFailure(
                        f"mp-conservative worker for partition {p} sent "
                        f"{reply[0]!r} instead of the ready handshake"
                    )
        except BaseException:
            self._procs, self._conns = procs, conns
            self.shutdown()
            raise

    def send(self, p: int, msg: tuple) -> None:
        try:
            self._conns[p].send(msg)
        except (BrokenPipeError, OSError):
            self._died(p)

    def recv(self, p: int) -> tuple:
        conn = self._conns[p]
        proc = self._procs[p]
        while not conn.poll(_POLL_INTERVAL):
            if not proc.is_alive():
                self._died(p)
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            self._died(p)
        if reply[0] == "error":
            self.shutdown()
            raise WorkerFailure(
                f"mp-conservative worker for partition {p} failed: {reply[1]}"
            )
        return reply

    def _died(self, p: int) -> None:
        code = self._procs[p].exitcode
        self.shutdown()
        raise WorkerFailure(
            f"mp-conservative worker for partition {p} died mid-protocol "
            f"(exit code {code}); distributed run state is lost and the run "
            f"cannot continue"
        )

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._procs, self._conns = [], []


#: The transports by the name ``mp-conservative.backend`` selects them.
MP_BACKENDS = {"mp": MultiprocessingBackend, "inline": InlineBackend}
