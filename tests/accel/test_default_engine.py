"""The default engine: what a run gets when nothing names an engine.

``NetworkFabric(engine=None)`` -- where every caller's default lands --
builds ``DEFAULT_ENGINE``: the compiled kernel with the fabric resident
where it loads, else the plain sequential engine with the reason
recorded.  Result documents of stanza-less specs must not notice:
byte-identical on every backend, no ``engine`` key, same spec digest.
Also here: the lazily allocated router FIFOs the paper-scale default
relies on, and the build's log records.
"""

import json
import logging
from collections import deque

import pytest

from repro.accel import build as accel_build
from repro.accel import KernelEngine, kernel_status
from repro.harness.configs import make_topology
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.pdes.sequential import SequentialEngine
from repro.registry import DEFAULT_ENGINE, engine_registry
from repro.scenario import parse_scenario, run_scenario
from repro.service.cache import spec_digest

COMPILED = kernel_status()["available"]
needs_kernel = pytest.mark.skipif(
    not COMPILED, reason=f"no compiled kernel: {kernel_status()['reason']}")

SPEC = {"name": "default-engine", "seed": 3, "horizon": 2e-3,
        "topology": {"network": "1d"}, "jobs": [{"app": "nn"}, {"app": "milc"}]}
#: spec_digest(SPEC) before the default moved to the compiled kernel.
SPEC_DIGEST = "add17c3834817f77c4174da7c403c2bb2621800ace1a4a4c9d98bba89be6988b"


def test_default_is_a_registered_compiled_preset():
    spec = engine_registry.get(DEFAULT_ENGINE)
    assert spec.axes["backend"] == "compiled" and not spec.partitioned


@needs_kernel
def test_bare_fabric_runs_resident_on_the_compiled_kernel(monkeypatch):
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    engine = NetworkFabric(Dragonfly1D.mini()).engine
    assert (engine.backend, engine.fabric) == ("compiled", "resident")
    assert engine.backend_reason == "" and engine.fabric_reason == ""


def test_disabled_kernel_gives_the_plain_sequential_engine(monkeypatch):
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    engine = NetworkFabric(Dragonfly1D.mini()).engine
    assert type(engine) is SequentialEngine
    assert engine.backend == "python"
    assert "UNION_ACCEL_DISABLE" in engine.backend_reason


def test_stanza_less_results_are_byte_identical_on_every_backend(monkeypatch):
    spec = parse_scenario(SPEC)
    assert spec.engine is None
    assert spec_digest(spec) == SPEC_DIGEST

    def document(engine=None):
        data = dict(SPEC, engine=engine) if engine else SPEC
        result = run_scenario(parse_scenario(data))
        doc = result.to_json_dict()
        if engine is None:
            assert "engine" not in doc
        else:
            doc.pop("engine")
        return json.dumps(doc, sort_keys=True), result.outcome.fabric.engine

    default, engine = document()
    reference, _ = document({"type": "sequential"})
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    disabled, fallback = document()
    assert default == reference == disabled
    assert fallback.backend == "python"
    assert engine.backend == ("compiled" if COMPILED else "python")
    assert spec_digest(parse_scenario(SPEC)) == SPEC_DIGEST


# -- lazy router FIFOs ----------------------------------------------------------

def test_fresh_paper_fabric_holds_no_fifo():
    fabric = NetworkFabric(make_topology("1d", "paper"), NetworkConfig(seed=1))
    slots = [dq for r in fabric.routers for dq in r.pending_starts]
    assert len(slots) == fabric.topo.n_links
    assert not any(isinstance(dq, deque) for dq in slots)


def storm(engine, topo=None):
    """Every node sends one 3-packet message to a node three groups on."""
    topo = topo or Dragonfly1D.mini()
    fabric = NetworkFabric(topo, NetworkConfig(seed=5), engine=engine)
    shift = 3 * topo.nodes_per_group
    for node in range(topo.n_nodes):
        fabric.send_message(node % 3, node, (node + shift) % topo.n_nodes,
                            3 * fabric.config.packet_bytes)
    return fabric


def depths(fabric):
    return [[r.queue_depth(p) for p in range(len(r.busy_until))]
            for r in fabric.routers]


@pytest.mark.parametrize("engine", [
    SequentialEngine,
    pytest.param(KernelEngine, marks=needs_kernel, id="compiled"),
])
def test_queue_depth_of_ports_without_a_fifo(engine):
    reference = storm(SequentialEngine())
    fabric = storm(engine())
    assert all(d == 0 for row in depths(fabric) for d in row)
    for until in (2e-7, 1.3e-6, 4e-6, 1.0):
        reference.engine.run(until=until)
        fabric.engine.run(until=until)
        assert depths(fabric) == depths(reference)
        now = fabric.engine.now
        untouched = [(r, p) for r in fabric.routers
                     for p, dq in enumerate(r.pending_starts) if dq == ()]
        assert untouched  # most ports never queue
        for r, p in untouched:
            assert r.queue_depth(p) == (1 if now < r.busy_until[p] else 0)
    assert any(isinstance(dq, deque) for r in fabric.routers
               for dq in r.pending_starts)  # ... but some did
    assert depths(fabric) == depths(reference)


# -- no silent compile or downgrade ----------------------------------------------

@pytest.fixture()
def fresh_build(tmp_path, monkeypatch):
    """An empty kernel cache and no memoized load outcome (both are put
    back afterwards, so later tests reload the real cache)."""
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path / "cache"))
    accel_build._reset_for_tests()
    yield tmp_path / "cache"
    accel_build._reset_for_tests()


def records(caplog, level):
    return [r for r in caplog.records
            if r.name == accel_build.__name__ and r.levelno == level]


@needs_kernel
def test_a_compile_logs_one_info_record(fresh_build, caplog):
    caplog.set_level(logging.INFO, logger=accel_build.__name__)
    accel_build.load_kernel()
    accel_build.load_kernel()
    NetworkFabric(Dragonfly1D.mini())
    (info,) = records(caplog, logging.INFO)
    assert str(fresh_build) in info.getMessage()
    assert info.getMessage().endswith(" s")
    assert not records(caplog, logging.WARNING)


def test_an_unavailable_kernel_warns_once(fresh_build, monkeypatch, caplog):
    monkeypatch.setattr(accel_build, "_find_compiler", lambda: None)
    for _ in range(3):
        assert NetworkFabric(Dragonfly1D.mini()).engine.backend == "python"
    (warning,) = records(caplog, logging.WARNING)
    assert "no C compiler" in warning.getMessage()


def test_the_disable_switch_does_not_warn(fresh_build, monkeypatch, caplog):
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    assert NetworkFabric(Dragonfly1D.mini()).engine.backend == "python"
    assert not records(caplog, logging.WARNING)


class Delegating:
    """A fabric model with the structural interface but no PortGraph
    base (so no flat port table)."""

    def __init__(self, topo):
        self._topo = topo

    def __getattr__(self, name):
        return getattr(self._topo, name)


@needs_kernel
def test_a_topology_without_port_rows_runs_on_python_rows():
    engine = KernelEngine()
    fabric = storm(engine, Delegating(Dragonfly1D.mini()))
    assert engine.fabric == "python"
    assert "not a PortGraph" in engine.fabric_reason
    reference = storm(SequentialEngine())
    fabric.engine.run()
    reference.engine.run()
    assert depths(fabric) == depths(reference)
    assert fabric.engine.events_processed == reference.engine.events_processed
