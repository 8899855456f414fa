"""Worker side of the multi-process conservative engine.

A worker owns one partition of the LP plan.  It rebuilds the whole
model from the :class:`~repro.parallel.mp.recipe.ModelRecipe` (so LP
ids, sequence counters and RNG streams line up with every other
process), then services the master's request/reply protocol:

``("floor",)``
    -> ``("floor", t)`` -- earliest pending local event time.
``("window", window_end, until, events, opens)``
    -> ``("done", counted, outbox, opens, floor, now)`` -- register the
    delivered message-open records, absorb the delivered events, commit
    one YAWNS window, and return everything that crossed out of this
    partition during it.
``("collect",)``
    -> ``("state", snapshot)`` -- ship counters, bins, fabric totals and
    owned rank stats for the master's merge (non-destructive).
``("exit",)``
    -> ``("bye",)``.

The worker never sees a ``max_events`` budget: budgeted runs stay
single-process (see ``docs/engines.md``).
"""

from __future__ import annotations

import heapq
import pickle
from typing import Any

from repro.pdes.conservative import ConservativeEngine
from repro.pdes.event import Event

#: Control-plane event kinds every partition commits locally.  The
#: model is replicated, so each worker runs its own copy of the t=0
#: "start" (and any defensive "launch") and keeps only the fallout
#: destined for its partition; origin-scoped sequence counters advance
#: identically everywhere because ``schedule_fast`` counts *attempts*,
#: not accepted pushes.
REPLICATED_KINDS = frozenset({"start", "launch"})


class WorkerEngine(ConservativeEngine):
    """Conservative engine that keeps one partition and exports the rest.

    ``_push`` routing, in order:

    1. events for LPs in our partition -> local heap;
    2. replicated control kinds -> local heap (every worker runs them);
    3. events scheduled *by our own partition's execution* for a foreign
       LP -> outbox, after the usual lookahead contract check;
    4. everything else is dropped: it was scheduled during replicated
       control execution (or control-plane fan-out), and the partition
       that owns the destination schedules its own identical copy.
    """

    def __init__(self, lookahead: float, n_partitions: int, partition_fn, partition: int) -> None:
        super().__init__(lookahead, n_partitions=n_partitions, partition_fn=partition_fn)
        if not 0 <= partition < n_partitions:
            raise ValueError(f"partition {partition} out of range for {n_partitions} partitions")
        self.partition = partition
        self.outbox: list[Event] = []

    def _push(self, ev: Event) -> None:
        me = self.partition
        part = self._part_of_lp[ev.dst]
        if part == me or ev.kind in REPLICATED_KINDS:
            heapq.heappush(self._queue, (ev.time, ev.priority, ev.seq, ev))
            return
        if self._current_partition == me:
            if ev.time < ev.send_time + self.lookahead:
                raise RuntimeError(
                    f"lookahead violation: cross-partition event {ev!r} scheduled "
                    f"with delay {ev.time - ev.send_time:.3e} < lookahead "
                    f"{self.lookahead:.3e}"
                )
            self.outbox.append(ev)
        # else: dropped -- scheduled during replicated execution; the
        # destination's owner generates its own copy.

    def absorb(self, events: list[Event]) -> None:
        """Heap-push events delivered from other partitions."""
        q = self._queue
        for ev in events:
            heapq.heappush(q, (ev.time, ev.priority, ev.seq, ev))

    def drain_outbox(self) -> dict[int, list[Event]]:
        """Pop and return this window's exports, grouped by destination
        partition."""
        out: dict[int, list[Event]] = {}
        parts = self._part_of_lp
        for ev in self.outbox:
            out.setdefault(parts[ev.dst], []).append(ev)
        self.outbox = []
        return out


class WorkerSession:
    """One partition's model plus the request/reply protocol handler."""

    def __init__(self, recipe: Any, partition: int) -> None:
        from repro.parallel.mp.recipe import build_worker_model

        self.partition = partition
        self.session = build_worker_model(recipe, partition)
        self.engine: WorkerEngine = self.session.engine
        self.fabric = self.session.fabric
        self.mpi = self.session.mpi
        self.part_of_node = self.engine.plan.part_of_node
        #: Message-open records created this window, grouped by the
        #: destination node's partition: (msg_id, size, meta, app_id, dst_node).
        self._opens: dict[int, list[tuple]] = {}
        #: msg_ids of in-progress sends whose destination is foreign;
        #: their local bookkeeping entry is purged once injection ends.
        self._foreign_out: set[int] = set()
        self._wrap_fabric()

    def _wrap_fabric(self) -> None:
        """Intercept the two fabric calls that straddle partitions.

        ``send_message``: when the destination node lives elsewhere, the
        destination partition needs the message's reassembly entry
        before any of its packets arrive.  We record an *open* -- the
        entry's plain-data fields -- and the master delivers it with the
        next window.  The meta tuple's send-side ``Request`` (slot 6) is
        blanked: it holds the sender's live rank state, which never
        leaves this process, and the delivery path only reads slots 0-5.

        ``on_message_injected``: once the NIC finishes injecting a
        foreign-destination message, the local entry has served its
        send-side purpose; purging it keeps the in-flight merge from
        double-counting the message (the destination partition and the
        master-held opens track it from here).
        """
        fabric = self.fabric
        part_of_node = self.part_of_node
        me = self.partition
        opens = self._opens
        foreign = self._foreign_out
        orig_send = fabric.send_message
        orig_injected = fabric.on_message_injected

        def send_message(app_id: int, src_node: int, dst_node: int, size: int, meta=None) -> int:
            msg_id = orig_send(app_id, src_node, dst_node, size, meta)
            if src_node != dst_node and part_of_node[dst_node] != me:
                wire = (
                    meta[:6] + (None,)
                    if isinstance(meta, tuple) and len(meta) == 7
                    else meta
                )
                opens.setdefault(part_of_node[dst_node], []).append(
                    (msg_id, size, wire, app_id, dst_node)
                )
                foreign.add(msg_id)
            return msg_id

        def on_message_injected(msg_id: int, time: float) -> None:
            orig_injected(msg_id, time)
            if msg_id in foreign:
                foreign.discard(msg_id)
                fabric._msgs.pop(msg_id, None)

        fabric.send_message = send_message
        fabric.on_message_injected = on_message_injected

    def _register_opens(self, opens: list[tuple]) -> None:
        from repro.network.fabric import _MsgState

        msgs = self.fabric._msgs
        for msg_id, size, meta, app_id, dst_node in opens:
            msgs[msg_id] = _MsgState(size, meta, app_id, dst_node)

    def _drain_opens(self) -> dict[int, list[tuple]]:
        out = dict(self._opens)
        self._opens.clear()
        return out

    def handle(self, msg: tuple) -> tuple:
        tag = msg[0]
        eng = self.engine
        if tag == "floor":
            return ("floor", eng.pending_floor())
        if tag == "window":
            _tag, window_end, until, events, opens = msg
            # Opens first: a crossing packet executes no earlier than the
            # window after its open record shipped, so registering before
            # absorbing keeps reassembly lookups safe.
            self._register_opens(opens)
            eng.absorb(events)
            eng.windows_executed += 1
            before = eng.committed_by_partition[self.partition]
            committed, _ = eng.commit_window(window_end, until)
            if committed > eng.max_window_events:
                eng.max_window_events = committed
            # Only commits charged to our own partition count toward the
            # global total -- replicated control commits are charged to
            # partition 0 and counted once, by partition 0's worker.
            counted = eng.committed_by_partition[self.partition] - before
            return (
                "done",
                counted,
                eng.drain_outbox(),
                self._drain_opens(),
                eng.pending_floor(),
                eng.now,
            )
        if tag == "collect":
            from repro.parallel.mp.merge import snapshot_worker

            return ("state", snapshot_worker(self))
        if tag == "exit":
            return ("bye",)
        raise ValueError(f"unknown mp protocol message {tag!r}")


def worker_main(conn, blob: bytes, partition: int) -> None:
    """Process entry point for the ``mp`` backend (spawn context).

    Builds the model, acknowledges with ``("ready", partition)`` and then
    serves requests until ``exit`` or EOF.  Any exception is reported as
    an ``("error", text)`` reply so the master can fail loudly instead
    of hanging.
    """
    try:
        ws = WorkerSession(pickle.loads(blob), partition)
    except BaseException as exc:  # noqa: BLE001 - must reach the master
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", partition))
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        try:
            reply = ws.handle(msg)
        except BaseException as exc:  # noqa: BLE001 - must reach the master
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            finally:
                conn.close()
            return
        conn.send(reply)
        if reply[0] == "bye":
            break
    conn.close()

