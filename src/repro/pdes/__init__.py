"""Parallel discrete-event simulation kernel (ROSS substitute).

The paper's simulation stack runs CODES on top of ROSS, a parallel
optimistic (Time Warp) discrete-event engine.  This package provides the
Python equivalent: a common :class:`~repro.pdes.engine.Engine` interface
with two interchangeable pure-Python schedulers,

* :class:`~repro.pdes.sequential.SequentialEngine` -- a deterministic
  single-queue scheduler used by all network experiments,
* :class:`~repro.pdes.conservative.ConservativeEngine` -- a YAWNS-style
  lookahead-window scheduler over partitioned LPs.

Both (and the compiled :class:`repro.accel.KernelEngine`) commit the
identical event sequence; this is verified by the PHOLD tests in
``tests/pdes``, against an optimistic Time Warp scheduler kept there as
an independent reference oracle (``tests/pdes/timewarp.py``).
"""

from repro.pdes.event import Event, Priority
from repro.pdes.lp import LP
from repro.pdes.engine import Engine
from repro.pdes.sequential import SequentialEngine
from repro.pdes.conservative import ConservativeEngine
from repro.pdes.rng import lp_stream

__all__ = [
    "Event",
    "Priority",
    "LP",
    "Engine",
    "SequentialEngine",
    "ConservativeEngine",
    "lp_stream",
]
