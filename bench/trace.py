"""Span tracer: one span around each call the benchmark makes into a layer.

A span is ``{name, start_ns, end_ns, parent, op}``: ``name`` is
``<layer>.<call>`` (``network.run``, ``scenario.parse``), ``parent`` is
the index of the enclosing span (``-1`` at the top) and ``op`` numbers
the operation the span belongs to, so the spans of one operation share
an identifier.  Spans stay in memory and are written out once, when the
run ends.  A layer's *self time* is its span's duration minus the part
its child spans cover.

The untraced run goes through :class:`NullTracer`, whose ``span`` hands
back one shared do-nothing context manager; the workloads are written
once against ``tracer.span(...)`` and the difference between the two
runs is the tracing overhead (``trace.overhead_ratio``).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

#: Name of the span that encloses one whole operation.
OP_SPAN = "op"


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: ``span`` costs one attribute lookup and a no-op
    ``with``."""

    enabled = False
    op = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._open
        self.index = len(tracer.spans)
        tracer.spans.append(
            [name, 0, 0, stack[-1] if stack else -1, tracer.op])

    def __enter__(self) -> None:
        self.tracer._open.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        end = perf_counter_ns()
        self.tracer.spans[self.index][2] = end
        self.tracer._open.pop()


class Tracer:
    """Tracing on: every ``span`` is recorded in :attr:`spans` as
    ``[name, start_ns, end_ns, parent, op]``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Identifier shared by the spans of the current operation.
        self.op = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- reductions --------------------------------------------------------
    def ops(self) -> list[int]:
        """The identifiers of the operations that recorded an op span."""
        return [s[4] for s in self.spans if s[0] == OP_SPAN]

    def total_s(self, name: str, op: int) -> float:
        """Seconds covered by the spans called ``name`` in operation
        ``op`` (0.0 when the operation never made that call)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and s[4] == op) * 1e-9

    def self_s_by_layer(self, op: int) -> dict[str, float]:
        """Self time of every layer in operation ``op``: each span's
        duration minus its direct children's, summed by the layer part
        of the span name.  The op span's own self time is reported
        under ``"bench"`` -- the benchmark's input handling and
        checks."""
        children = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[4] != op:
                continue
            layer = "bench" if s[0] == OP_SPAN else s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1] - children[i]) * 1e-9
        return out

    def write(self, path: Path, workload: str, seed: int) -> None:
        """Write every span as one JSON document."""
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        doc = {
            "workload": workload,
            "seed": seed,
            "clock": "time.perf_counter_ns",
            "spans": [dict(zip(keys, s)) for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
