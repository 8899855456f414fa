"""The accel engines end to end: registry, parity goldens, surfacing.

The headline guarantee (the tentpole's oracle): an ``accel-*`` engine
commits the *identical* event sequence as its pure-Python counterpart
-- scenario result JSON bit-identical modulo the ``engine`` stanza --
on both backends, with the backend that actually ran surfaced
non-vacuously in that stanza.  Compiled-backend cases are gated on this
host being able to build the kernel; the forced-``python`` cases run
unconditionally, so fallback parity can never go vacuous.
"""

import os
import shutil

import pytest

from repro.accel import kernel_status
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.registry import RegistryError, build_engine, engine_registry
from repro.scenario import oracle, parse_scenario, run_scenario

COMPILED = kernel_status()["available"]
needs_kernel = pytest.mark.skipif(
    not COMPILED, reason=f"no compiled kernel: {kernel_status()['reason']}")


# -- registry integration ----------------------------------------------------

def test_registry_entries_and_aliases():
    seq = engine_registry.get("accel-sequential")
    con = engine_registry.get("accel-conservative")
    assert engine_registry.get("fast") is seq
    assert engine_registry.get("fast-yawns") is con
    backend = {p.name: p for p in seq.params}["backend"]
    assert backend.choices == ("compiled", "python")
    assert backend.default == "compiled"
    con_params = {p.name for p in con.params}
    assert con_params == {"partitions", "lookahead", "backend"}
    assert con.partitioned and not seq.partitioned


def test_bogus_backend_rejected_with_choices():
    with pytest.raises(RegistryError, match="compiled"):
        build_engine({"type": "accel-sequential", "backend": "bogus"},
                     Dragonfly1D.mini(), NetworkConfig())


def test_compiler_host_actually_compiles():
    """Non-vacuity guard for this whole file: a host with a C compiler
    and no disable switch must report the kernel available -- otherwise
    every compiled-gated parity case above would silently skip."""
    if os.environ.get("UNION_ACCEL_DISABLE"):
        pytest.skip("UNION_ACCEL_DISABLE set")
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on this host")
    assert COMPILED, kernel_status()["reason"]


# -- scenario parity goldens -------------------------------------------------

def _scenario(engine_table):
    return parse_scenario({
        "name": "accel-golden", "seed": 11, "horizon": 2.0,
        "topology": {"network": "1d", "scale": "mini"},
        "routing": "adp",
        "engine": engine_table,
        "jobs": [
            {"name": "nn", "app": "nn", "nranks": 8,
             "params": {"iters": 3, "msg_bytes": 32768, "dims": (2, 2, 2)}},
            {"name": "ur", "app": "ur", "nranks": 8,
             "params": {"iters": 4, "msg_bytes": 8192}},
        ],
    })


def _result_json(engine_table):
    return oracle.split(run_scenario(_scenario(engine_table)).to_json_dict())


def test_python_backend_bit_identical_to_sequential():
    _, base = _result_json({"type": "sequential"})
    eng, doc = _result_json({"type": "accel-sequential", "backend": "python"})
    assert doc == base
    assert eng["backend"] == "python"
    assert eng["backend_reason"] == "backend 'python' requested"
    # No silent downgrade: a Python fabric is reported with its reason.
    assert eng["fabric"] == "python" and eng["fabric_reason"]


@needs_kernel
def test_compiled_sequential_bit_identical_to_sequential():
    _, base = _result_json({"type": "sequential"})
    eng, doc = _result_json({"type": "accel-sequential"})
    assert doc == base
    # Non-vacuous: the compiled kernel actually ran.
    assert eng["backend"] == "compiled"
    assert eng["backend_reason"] is None
    # ... with the MPI job's fabric resident in it.
    assert (eng["fabric"], eng["fabric_reason"]) == ("resident", None)


@needs_kernel
def test_compiled_conservative_bit_identical_to_sequential():
    _, base = _result_json({"type": "sequential"})
    eng, doc = _result_json({"type": "accel-conservative", "partitions": 3})
    assert doc == base
    assert eng["backend"] == "compiled"
    assert eng["fabric"] == "resident"
    assert eng["scheme"] == "group"
    assert eng["windows"] > 0


def test_python_conservative_bit_identical_to_sequential():
    _, base = _result_json({"type": "sequential"})
    eng, doc = _result_json({"type": "accel-conservative", "partitions": 3,
                             "backend": "python"})
    assert doc == base
    assert eng["backend"] == "python"


# -- stepping parity ---------------------------------------------------------

@needs_kernel
def test_stepping_commits_identical_sequence():
    """step(t1); step(t2) == run(t2) on the compiled kernel -- the
    session-lifecycle contract the stepwise drivers build on."""
    from repro.accel import KernelEngine
    from tests.pdes.phold import build_phold, fingerprint

    ref = KernelEngine()
    ref_lps = build_phold(ref, n_lps=10, seed=23, initial=3)
    ref.run(until=60.0)

    eng = KernelEngine()
    lps = build_phold(eng, n_lps=10, seed=23, initial=3)
    for k in range(1, 13):
        eng.step(until=5.0 * k)
    assert eng.now == ref.now
    assert eng.events_processed == ref.events_processed
    assert fingerprint(lps) == fingerprint(ref_lps)


# -- engine surface details --------------------------------------------------

@needs_kernel
def test_compiled_engine_counters_and_budget():
    from repro.accel import KernelEngine
    from repro.pdes.sequential import SequentialEngine
    from tests.pdes.phold import build_phold

    ref = SequentialEngine()
    build_phold(ref, n_lps=8, seed=5, initial=2)
    ref.run(until=30.0, max_events=100)

    eng = KernelEngine()
    build_phold(eng, n_lps=8, seed=5, initial=2)
    eng.run(until=30.0, max_events=100)
    assert eng.events_processed == ref.events_processed == 100
    assert eng.now == ref.now
    assert eng.peek_time() == ref.peek_time()
    # Resumable after a budget stop, like the Python engine.
    eng.run(until=30.0)
    ref.run(until=30.0)
    assert eng.events_processed == ref.events_processed
    assert eng.now == ref.now


@needs_kernel
def test_compiled_conservative_rejects_lookahead_violation():
    from repro.accel import KernelEngine
    from repro.pdes.lp import LP

    class Fwd(LP):
        def handle(self, event):
            # Cross-partition hop closer than the lookahead: illegal.
            self.engine.schedule(1e-9, dst=1, kind="tick")

    eng = KernelEngine(lookahead=0.5, n_partitions=2)
    a, b = Fwd(), Fwd()
    eng.register(a, partition=0)
    eng.register(b, partition=1)
    eng.schedule_at(1.0, a.lp_id, "tick")
    with pytest.raises(RuntimeError, match="lookahead violation"):
        eng.run(until=5.0)
    # The finally-path bookkeeping survived the raise.
    assert eng.events_processed == 0
