"""Every registered engine preset as a ready factory.

Tests that must hold for *every* engine iterate :data:`PRESETS` instead
of naming classes, so they follow the registry's axes: a preset added
to (or removed from) ``repro.registry.engines`` joins (or leaves) them
without an edit here.  Windowed presets get three partitions of the
mini 1D dragonfly, and ``compiled`` backends run twice -- as built on
this host (the kernel, or its recorded fallback) and with the kernel
disabled, so the ``backend = "python"`` fallback the preset records is
exercised on every host.
"""

import os
from unittest import mock

import pytest

from repro.network.dragonfly import Dragonfly1D
from repro.registry import build_engine, engine_registry

TOPO = Dragonfly1D.mini()
#: PHOLD LPs to register so that every partition of the plan gets some
#: (the plan maps LP ids onto the topology's routers first).
N_LPS = TOPO.n_routers


def _table(spec):
    table = {"type": spec.name}
    if spec.axes["windowing"] == "yawns":
        table["partitions"] = 3
    return table


def _fallback(table):
    with mock.patch.dict(os.environ, {"UNION_ACCEL_DISABLE": "1"}):
        return build_engine(table, TOPO)


def _variants(spec):
    table = _table(spec)
    yield spec.name, lambda: build_engine(table, TOPO)
    if spec.axes["backend"] == "compiled":
        yield f"{spec.name}[python]", lambda: _fallback(table)


#: ``pytest.param(make, spec)`` per preset variant; ``make()`` builds a
#: fresh engine, ``spec`` is its :class:`~repro.registry.EngineSpec`.
PRESETS = [
    pytest.param(make, spec, id=label)
    for spec in engine_registry
    for label, make in _variants(spec)
]
