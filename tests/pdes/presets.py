"""Every registered engine preset as a ready factory.

Tests that must hold for *every* engine iterate :data:`PRESETS` instead
of naming classes, so they follow the registry's axes: a preset added
to (or removed from) ``repro.registry.engines`` joins (or leaves) them
without an edit here.  Windowed presets get three partitions of the
mini 1D dragonfly, ``mp`` layouts the spawn-free ``inline`` transport,
and ``compiled`` backends run twice -- as built on this host (the
kernel, or its recorded fallback) and forced to ``python``.
"""

import pytest

from repro.network.dragonfly import Dragonfly1D
from repro.registry import build_engine, engine_registry

TOPO = Dragonfly1D.mini()
#: PHOLD LPs to register so that every partition of the plan gets some
#: (the plan maps LP ids onto the topology's routers first).
N_LPS = TOPO.n_routers


def _tables(spec):
    table = {"type": spec.name}
    if spec.axes["windowing"] == "yawns":
        table["partitions"] = 3
    if spec.axes["layout"] == "mp":
        table["backend"] = "inline"
    yield spec.name, table
    if spec.axes["backend"] == "compiled":
        yield f"{spec.name}[python]", {**table, "backend": "python"}


#: ``pytest.param(make, spec)`` per preset variant; ``make()`` builds a
#: fresh engine, ``spec`` is its :class:`~repro.registry.EngineSpec`.
PRESETS = [
    pytest.param(lambda table=table: build_engine(table, TOPO), spec, id=label)
    for spec in engine_registry
    for label, table in _tables(spec)
]
