"""Build machinery of the compiled kernel: lazy compile, cache, fallback.

The contract under test: ``load_kernel`` builds the C extension on
first use into a source-hash-keyed cache, *anything* that prevents a
native kernel raises :exc:`AccelUnavailable` with a human-readable
reason, and the ``accel-*`` presets turn that reason into a recorded
``backend: python`` fallback instead of an error.  ``pip install`` and
import must never require a compiler.
"""

import shutil

import pytest

from repro.accel import (
    AccelUnavailable,
    accel_sequential_engine,
    kernel_status,
    load_kernel,
)
from repro.accel import build as accel_build


@pytest.fixture()
def reset_memo():
    """Run with a dropped memo and drop it again afterwards, so this
    test's cache/compiler monkeypatching cannot leak into other tests."""
    accel_build._reset_for_tests()
    yield
    accel_build._reset_for_tests()


def test_kernel_status_shape():
    st = kernel_status()
    assert set(st) == {"available", "reason", "compiler"}
    assert isinstance(st["available"], bool)
    # Exactly one of available / reason, never both.
    assert st["available"] == (st["reason"] == "")


def test_disable_env_forces_fallback_with_reason(monkeypatch):
    monkeypatch.setenv("UNION_ACCEL_DISABLE", "1")
    with pytest.raises(AccelUnavailable, match="UNION_ACCEL_DISABLE"):
        load_kernel()
    assert kernel_status()["available"] is False
    eng = accel_sequential_engine()
    assert eng.backend == "python"
    assert "UNION_ACCEL_DISABLE" in eng.backend_reason
    # The env check precedes the memo: the same process recovers as
    # soon as the switch is lifted (to the compiled kernel when this
    # host can build one, else to the memoized real reason).
    monkeypatch.delenv("UNION_ACCEL_DISABLE")
    assert "UNION_ACCEL_DISABLE" not in kernel_status()["reason"]


def test_no_compiler_records_clean_fallback(tmp_path, monkeypatch, reset_memo):
    """A host with no compiler and no cached artifact: factories fall
    back, nothing raises, the reason names the probe that failed."""
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path / "empty"))
    monkeypatch.setattr(accel_build, "_find_compiler", lambda: None)
    with pytest.raises(AccelUnavailable, match="no C compiler"):
        load_kernel()
    eng = accel_sequential_engine()
    assert eng.backend == "python"
    assert "no C compiler" in eng.backend_reason
    # The failure is memoized too -- no repeated compiler probing.
    assert accel_build._memo == (None, eng.backend_reason)


@pytest.mark.parametrize("table", [
    {"type": "accel-sequential"},
    {"type": "accel-conservative", "partitions": 3},
], ids=["accel-sequential", "accel-conservative"])
def test_backend_python_is_always_available(table, monkeypatch):
    """Whatever stops the kernel loading, both compiled presets build
    their Python engine and record that reason verbatim."""
    from repro.accel import engines as accel_engines
    from repro.network.dragonfly import Dragonfly1D
    from repro.registry import build_engine

    def unavailable():
        raise AccelUnavailable("kernel went missing")

    monkeypatch.setattr(accel_engines, "load_kernel", unavailable)
    eng = build_engine(table, Dragonfly1D.mini())
    assert eng.backend == "python"
    assert eng.backend_reason == "kernel went missing"
    assert (eng.lookahead is not None) == ("partitions" in table)


@pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None,
                    reason="no C compiler on this host")
def test_fresh_build_into_cache_dir(tmp_path, monkeypatch, reset_memo):
    """End-to-end compile into an empty cache: the one-time build leaves
    a keyed artifact and the loaded module exports the kernel ABI."""
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path))
    mod = load_kernel()
    assert mod.SEQ_ORIGIN_SHIFT == 40
    assert callable(mod.Kernel)
    artifacts = list(tmp_path.glob("_union_accel.*"))
    assert len(artifacts) == 1
    # Second call is memoized -- same module object, no rebuild.
    assert load_kernel() is mod


# -- load hardening ----------------------------------------------------------

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on this host")


def _plant(cache, payload: bytes):
    """Put ``payload`` where load_kernel expects the cached artifact."""
    path = accel_build._source_artifact()
    assert path.parent == cache
    cache.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return path


@needs_cc
@pytest.mark.parametrize("payload", [b"", b"\x7fELF garbage, not a shared object"],
                         ids=["zero-byte", "garbage"])
def test_corrupt_cached_artifact_is_rebuilt_once(tmp_path, monkeypatch,
                                                 reset_memo, payload):
    """A truncated/corrupt cached .so (a killed compile, a full disk) is
    unlinked and rebuilt, not an import crash and not yet a fallback."""
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path))
    path = _plant(tmp_path, payload)
    mod = load_kernel()
    assert callable(mod.Kernel)
    assert path.stat().st_size > len(payload)
    assert accel_sequential_engine().backend == "compiled"


def test_unloadable_after_rebuild_is_a_recorded_fallback(tmp_path, monkeypatch,
                                                         reset_memo):
    """When the rebuild does not help either, the reason is recorded and
    the factories fall back -- exactly one rebuild was attempted."""
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path))
    path = _plant(tmp_path, b"")
    builds = []

    def fake_build(out, extra_flags=()):
        builds.append(out)
        out.write_bytes(b"still not a shared object")

    monkeypatch.setattr(accel_build, "_build", fake_build)
    with pytest.raises(AccelUnavailable, match="rebuilt kernel still fails"):
        load_kernel()
    assert builds == [path]
    eng = accel_sequential_engine()
    assert eng.backend == "python"
    assert "rebuilt kernel still fails" in eng.backend_reason
    assert eng.fabric == "python" and eng.fabric_reason


STUB = """
#include <Python.h>
static struct PyModuleDef stub = {PyModuleDef_HEAD_INIT, "_union_accel"};
PyMODINIT_FUNC PyInit__union_accel(void) {
    PyObject *m = PyModule_Create(&stub);
    if (m) {
        PyModule_AddIntConstant(m, "SEQ_ORIGIN_SHIFT", %d);
        PyModule_AddIntConstant(m, "ABI_VERSION", %d);
    }
    return m;
}
"""


@needs_cc
@pytest.mark.parametrize("shift, abi, complaint", [
    (40, accel_build.KERNEL_ABI + 1, "ABI_VERSION"),
    (32, accel_build.KERNEL_ABI, "SEQ_ORIGIN_SHIFT"),
])
def test_wrong_abi_kernel_is_refused_with_the_reason(tmp_path, monkeypatch,
                                                     reset_memo, shift, abi,
                                                     complaint):
    """The loaded module's exported seq packing and ABI version are
    checked against the Python side at load, not only in a test."""
    source = tmp_path / "stub.c"
    source.write_text(STUB % (shift, abi))
    monkeypatch.delenv("UNION_ACCEL_DISABLE", raising=False)
    monkeypatch.setenv("UNION_ACCEL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(accel_build, "_SOURCE", source)
    with pytest.raises(AccelUnavailable, match=f"ABI mismatch.*{complaint}"):
        load_kernel()
    eng = accel_sequential_engine()
    assert eng.backend == "python" and complaint in eng.backend_reason


def test_real_kernel_exports_the_abi_the_package_expects():
    if not kernel_status()["available"]:
        pytest.skip(kernel_status()["reason"])
    from repro.pdes.engine import Engine

    mod = load_kernel()
    assert mod.SEQ_ORIGIN_SHIFT == Engine.SEQ_ORIGIN_SHIFT
    assert mod.ABI_VERSION == accel_build.KERNEL_ABI
