"""repro.accel: compiled event-kernel subsystem with pure-Python fallback.

The inner loop of a simulation -- heap pops, the commit loop, and for a
:class:`~repro.network.fabric.NetworkFabric` the kernel adopts
(:mod:`repro.accel.dispatch`) the whole packet path: router forwarding,
NIC drain, minimal/UGAL path selection, delivery -- optionally runs in
a small C extension (``_kernel.c``) compiled lazily on first use.  The
committed event sequence is bit-identical to the pure-Python engines,
the fallback is automatic and recorded, and nothing at install or
import time requires a compiler.  See ``docs/engines.md``
("Accelerated kernels") and :mod:`repro.accel.build` for the
build/caching story.
"""

from repro.accel.build import AccelUnavailable, kernel_status, load_kernel
from repro.accel.engines import KernelEngine, accel_sequential_engine

__all__ = [
    "AccelUnavailable",
    "kernel_status",
    "load_kernel",
    "KernelEngine",
    "accel_sequential_engine",
]
