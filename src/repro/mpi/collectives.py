"""Collective algorithms composed from point-to-point primitives.

Real MPI libraries build collectives from point-to-point messages; doing
the same here means collective traffic exercises the network exactly
like application point-to-point traffic -- every constituent message
gets a latency sample, congestion stretches collectives, and the ML
workloads' "super-intensive blocking Allreduces" (Section VI-B) behave
as they do in the paper.

Algorithms (mirroring MPICH/Horovod choices):

* barrier  -- dissemination, ceil(log2 n) rounds;
* bcast    -- binomial tree;
* reduce   -- binomial tree (leaves towards root);
* allreduce -- recursive doubling for small payloads, ring
  (Horovod-style, 2(n-1) steps of size/n chunks) for large ones;
* allgather -- ring;
* alltoall  -- pairwise exchange;
* gather/scatter -- linear (root-sequential), adequate for the small
  fan-ins the workloads use.

Each algorithm is a generator over a ctx.  Tag isolation: each
collective invocation draws a fresh sequence number from the ctx; ranks
call collectives in the same program order (SPMD), so sequence numbers
agree across ranks.

Schedules
---------
The algorithms never read a result, a message or the clock: what a rank
sends, receives and waits for depends only on ``(algorithm, size, rank,
args)``.  So a rank does not drive the generator during the simulation.
:func:`schedule` drives it once, against a recording ctx, into a flat
:class:`Schedule` of point-to-point steps, and caches it (LRU, bounded
by total words).  ``RankCtx.allreduce`` and the other collective calls
then yield one :class:`~repro.mpi.types.Collective` op, which both
executors run step by step: the Python ``SimMPI`` and the compiled
kernel's resident ranks (``_ranks.c``).  They issue the identical
operations in the identical order, at the same simulated instants, as
the generator would.  Recorded tags are relative to the call's
sequence number (``_tag(seq, 0)``), so one schedule serves every call
with the same arguments.  Sizes and roots are integers (``RankCtx``
refuses anything else before the lookup), so keys that compare equal
record equal schedules.  Every call is recorded; the cache bounds the
memory.

A schedule is an ``array('q')`` of words, step after step:

``ISEND peer nbytes tag`` / ``IRECV peer tag``
    post request number k (in order of issue, from 0);
``WAIT q`` / ``WAITALL n q1 .. qn``
    block until those requests completed.

Every request is waited for, and no request twice in one ``WAITALL``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.mpi.types import Irecv, Isend, Wait, Waitall

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.process import RankCtx

_COLL_TAG_BASE = 1 << 24
_MAX_STEPS = 4096  # per-collective tag sub-space


def _tag(seq: int, step: int) -> int:
    if step >= _MAX_STEPS:  # pragma: no cover - defensive
        raise ValueError(f"collective exceeded {_MAX_STEPS} steps")
    return _COLL_TAG_BASE + seq * _MAX_STEPS + step


# -- schedules ---------------------------------------------------------------------

#: Step codes (``_ranks.c`` reads the same numbers).
ISEND, IRECV, WAIT, WAITALL = range(4)

#: Words the schedule cache holds at most.
CACHE_WORDS = 1 << 20


class Schedule:
    """One rank's recorded collective: ``code`` (see the module
    docstring) and how many sequence numbers it draws (``seqs``)."""

    __slots__ = ("code", "seqs")

    def __init__(self, code: array, seqs: int) -> None:
        self.code = code
        self.seqs = seqs


class _Recorder:
    """The ctx a collective generator is recorded against: identity and
    the raw channel, nothing that could make the steps depend on the run."""

    __slots__ = ("size", "rank", "seqs")

    def __init__(self, size: int, rank: int) -> None:
        self.size = size
        self.rank = rank
        self.seqs = 0

    def _next_coll_seq(self) -> int:
        self.seqs += 1
        return self.seqs - 1

    def _isend_raw(self, dst: int, nbytes: int, tag: int) -> Isend:
        return Isend(dst, nbytes, tag)

    def _irecv_raw(self, src: int, tag: int) -> Irecv:
        return Irecv(src, None, tag)


def record(algorithm, size: int, rank: int, args: tuple) -> Schedule:
    """Drive ``algorithm(ctx, *args)`` for ``rank`` of ``size`` into a
    :class:`Schedule`."""
    ctx = _Recorder(size, rank)
    gen = algorithm(ctx, *args)
    code = array("q")
    issued = 0
    waited: set[int] = set()
    tags: list[int] = []
    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration:
            break
        value = None
        kind = type(op)
        if kind is Isend:
            words = (ISEND, op.dst, op.nbytes, op.tag)
            value, issued = issued, issued + 1
        elif kind is Irecv:
            words = (IRECV, op.src, op.tag)
            value, issued = issued, issued + 1
        elif kind is Wait:
            words = (WAIT, op.request)
            waited.add(op.request)
        elif kind is Waitall:
            reqs = op.requests
            if len(set(reqs)) != len(reqs):
                raise ValueError(f"{algorithm.__name__} waits for a request twice")
            words = (WAITALL, len(reqs), *reqs)
            waited.update(reqs)
        else:
            raise TypeError(f"collective {algorithm.__name__} yielded {op!r}")
        code.extend(words)
        if kind is Isend or kind is Irecv:
            tags.append(len(code) - 1)
    if waited != set(range(issued)):
        raise ValueError(f"{algorithm.__name__} leaves a request unwaited "
                         "or waits for one it never issued")
    if ctx.seqs:
        # Tags are stored relative to the call's first sequence number.
        lo, hi = _tag(0, 0), _tag(ctx.seqs, 0)
        for at in tags:
            if not lo <= code[at] < hi:
                raise ValueError(f"{algorithm.__name__} uses tag {code[at]} "
                                 "outside its sequence numbers")
            code[at] -= lo
    return Schedule(code, ctx.seqs)


_cache: OrderedDict = OrderedDict()
_cache_words = 0


def schedule(algorithm, size: int, rank: int, args: tuple) -> Schedule:
    """The (cached) :func:`record` of one collective call."""
    global _cache_words
    key = (algorithm, size, rank, args)
    sched = _cache.get(key)
    if sched is not None:
        _cache.move_to_end(key)
    else:
        sched = _cache[key] = record(algorithm, size, rank, args)
        _cache_words += len(sched.code) + 1
        while _cache_words > CACHE_WORDS:
            _cache_words -= len(_cache.popitem(last=False)[1].code) + 1
    return sched


def tag_base(seq: int, sched: Schedule) -> int:
    """What a call drawing sequence numbers from ``seq`` adds to the
    recorded tags of ``sched``."""
    return _tag(seq, 0) if sched.seqs else 0


def barrier(ctx: "RankCtx"):
    """Dissemination barrier."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    mask, step = 1, 0
    while mask < n:
        dst = (r + mask) % n
        src = (r - mask) % n
        sreq = yield ctx._isend_raw(dst, 0, _tag(seq, step))
        rreq = yield ctx._irecv_raw(src, _tag(seq, step))
        yield Waitall([sreq, rreq])
        mask <<= 1
        step += 1


def bcast(ctx: "RankCtx", nbytes: int, root: int = 0):
    """Binomial-tree broadcast of ``nbytes`` from ``root``."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    rel = (r - root) % n
    mask = 1
    while mask < n:
        if rel & mask:
            src = (r - mask) % n
            req = yield ctx._irecv_raw(src, _tag(seq, 0))
            yield Wait(req)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < n:
            dst = (r + mask) % n
            req = yield ctx._isend_raw(dst, nbytes, _tag(seq, 0))
            yield Wait(req)
        mask >>= 1


def reduce(ctx: "RankCtx", nbytes: int, root: int = 0):
    """Binomial-tree reduction of ``nbytes`` to ``root``."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    rel = (r - root) % n
    mask = 1
    while mask < n:
        if rel & mask:
            dst = (r - mask) % n
            req = yield ctx._isend_raw(dst, nbytes, _tag(seq, 0))
            yield Wait(req)
            break
        else:
            src_rel = rel | mask
            if src_rel < n:
                src = (src_rel + root) % n
                req = yield ctx._irecv_raw(src, _tag(seq, 0))
                yield Wait(req)
        mask <<= 1


def _sendrecv(ctx: "RankCtx", dst: int, src: int, nbytes: int, tag: int):
    sreq = yield ctx._isend_raw(dst, nbytes, tag)
    rreq = yield ctx._irecv_raw(src, tag)
    yield Waitall([sreq, rreq])


def allreduce_recursive_doubling(ctx: "RankCtx", nbytes: int):
    """Recursive-doubling allreduce with the MPICH non-power-of-two fixup."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    # Phase 1: fold the extra ranks into the power-of-two core.
    if r < 2 * rem:
        if r % 2 == 0:
            req = yield ctx._isend_raw(r + 1, nbytes, _tag(seq, 0))
            yield Wait(req)
            newrank = -1
        else:
            req = yield ctx._irecv_raw(r - 1, _tag(seq, 0))
            yield Wait(req)
            newrank = r // 2
    else:
        newrank = r - rem
    # Phase 2: recursive doubling among the pof2 core ranks.
    if newrank >= 0:
        mask, step = 1, 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            yield from _sendrecv(ctx, partner, partner, nbytes, _tag(seq, step))
            mask <<= 1
            step += 1
    # Phase 3: hand results back to the folded ranks.
    if r < 2 * rem:
        if r % 2 == 0:
            req = yield ctx._irecv_raw(r + 1, _tag(seq, _MAX_STEPS - 1))
            yield Wait(req)
        else:
            req = yield ctx._isend_raw(r - 1, nbytes, _tag(seq, _MAX_STEPS - 1))
            yield Wait(req)


def allreduce_ring(ctx: "RankCtx", nbytes: int):
    """Ring allreduce (Horovod): 2(n-1) steps of ceil(nbytes/n) chunks."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    chunk = max(1, (nbytes + n - 1) // n)
    nxt, prv = (r + 1) % n, (r - 1) % n
    for step in range(2 * (n - 1)):
        yield from _sendrecv(ctx, nxt, prv, chunk, _tag(seq, step))


#: Payload size (bytes) above which allreduce switches to the ring algorithm.
RING_THRESHOLD = 64 * 1024


def allreduce(ctx: "RankCtx", nbytes: int, algorithm: str = "auto"):
    """Allreduce ``nbytes`` across the job.

    ``algorithm`` is ``"auto"`` (ring above :data:`RING_THRESHOLD`),
    ``"ring"`` or ``"rd"`` (recursive doubling).
    """
    if algorithm == "auto":
        algorithm = "ring" if (nbytes >= RING_THRESHOLD and ctx.size > 2) else "rd"
    if algorithm == "ring":
        yield from allreduce_ring(ctx, nbytes)
    elif algorithm == "rd":
        yield from allreduce_recursive_doubling(ctx, nbytes)
    else:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def allgather(ctx: "RankCtx", nbytes: int):
    """Ring allgather: n-1 steps, each forwarding an ``nbytes`` block."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    nxt, prv = (r + 1) % n, (r - 1) % n
    for step in range(n - 1):
        yield from _sendrecv(ctx, nxt, prv, nbytes, _tag(seq, step))


def alltoall(ctx: "RankCtx", nbytes: int):
    """Pairwise-exchange alltoall: n-1 shifted sendrecv steps."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    for step in range(1, n):
        dst = (r + step) % n
        src = (r - step) % n
        yield from _sendrecv(ctx, dst, src, nbytes, _tag(seq, step - 1))


def gather(ctx: "RankCtx", nbytes: int, root: int = 0):
    """Linear gather: every non-root rank sends ``nbytes`` to root."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    if r == root:
        reqs = []
        for src in range(n):
            if src != root:
                reqs.append((yield ctx._irecv_raw(src, _tag(seq, 0))))
        yield Waitall(reqs)
    else:
        req = yield ctx._isend_raw(root, nbytes, _tag(seq, 0))
        yield Wait(req)


def scatter(ctx: "RankCtx", nbytes: int, root: int = 0):
    """Linear scatter: root sends ``nbytes`` to every other rank."""
    n, r = ctx.size, ctx.rank
    if n == 1:
        return
    seq = ctx._next_coll_seq()
    if r == root:
        reqs = []
        for dst in range(n):
            if dst != root:
                reqs.append((yield ctx._isend_raw(dst, nbytes, _tag(seq, 0))))
        yield Waitall(reqs)
    else:
        req = yield ctx._irecv_raw(root, _tag(seq, 0))
        yield Wait(req)
