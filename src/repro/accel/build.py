"""Lazy compilation and loading of the ``_union_accel`` C kernel.

There is no build step at install time and no build-system dependency:
the kernel source ships as package data -- two translation units,
``_kernel.c`` (heap, commit loops, resident fabric) and ``_ranks.c``
(resident ranks), and the header they share, ``_kernel.h`` -- and is
compiled on first use with whatever C compiler the host has: both units
at once, in two compiler processes, then linked into one module.  The
result goes into a per-user cache keyed by the hash of every source (so
editing one, switching interpreters or upgrading the package each get a
fresh build, and concurrent processes race benignly via an atomic
rename).

Degradation is a feature, not an error: *anything* that prevents a
native kernel -- no compiler, a failing compile, a cached artifact that
stays unloadable after one rebuild, a kernel whose exported ABI does not
match this package, a non-POSIX host, the ``UNION_ACCEL_DISABLE``
environment switch -- raises
:exc:`AccelUnavailable` with a human-readable reason, and the accel
engine factories fall back to the pure-Python engines (which commit the
bit-identical event sequence) recording that reason.  ``pip install``
and import never require a compiler.

Nothing happens silently: a compile logs one INFO record on the
``repro.accel.build`` logger (cache path and seconds), and a kernel that
is unavailable for any reason but ``UNION_ACCEL_DISABLE`` logs one
WARNING per process -- the default engine is this kernel, so a host
that cannot build it is running the (bit-identical, slower) Python
engine.  ``union-sim engines --build`` does the compile up front.

Environment switches:

``UNION_ACCEL_DISABLE``
    Any non-empty value forces the fallback path (useful to pin the
    Python backend fleet-wide, and how CI exercises a compiler-less
    host on one that has a compiler).
``UNION_ACCEL_CACHE``
    Overrides the build-cache directory (default
    ``~/.cache/union-repro/accel``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

__all__ = ["AccelUnavailable", "load_kernel", "kernel_status", "build_into"]

log = logging.getLogger(__name__)

MODULE_NAME = "_union_accel"
_HERE = Path(__file__).parent
#: The translation units, compiled concurrently, and the header they share.
_UNITS = (_HERE / "_kernel.c", _HERE / "_ranks.c")
_SOURCES = (*_UNITS, _HERE / "_kernel.h")

#: The kernel's ``ABI_VERSION``: the layout of the adoption row
#: (:mod:`repro.accel.dispatch`) and the ``Kernel`` method signatures
#: :mod:`repro.accel.engines` calls.  Bump both sides together.
KERNEL_ABI = 4

#: Memoized load outcome: ``(module, "")`` or ``(None, reason)``.
#: ``UNION_ACCEL_DISABLE`` is consulted *before* the memo so tests can
#: toggle the fallback per-process without clearing anything.
_memo: tuple[object, str] | None = None


class AccelUnavailable(RuntimeError):
    """The compiled kernel cannot be used; the reason is the message."""


def _cache_dir() -> Path:
    override = os.environ.get("UNION_ACCEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "union-repro" / "accel"


def _find_compiler() -> str | None:
    """The C compiler to invoke: the interpreter's own, else cc/gcc/clang."""
    cc = sysconfig.get_config_var("CC")
    if cc:
        exe = shutil.which(cc.split()[0])
        if exe:
            return exe
    for cand in ("cc", "gcc", "clang"):
        exe = shutil.which(cand)
        if exe:
            return exe
    return None


def _build_key(sources: list[bytes]) -> str:
    """Cache key: every source's bytes + interpreter ABI, nothing else."""
    h = hashlib.sha256()
    for source in sources:
        h.update(hashlib.sha256(source).digest())
    h.update(sys.implementation.cache_tag.encode())
    return h.hexdigest()[:16]


def _artifact_path(key: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _cache_dir() / f"{MODULE_NAME}.{key}{suffix}"


def _run(cmds: list[list[str]]) -> None:
    """Run the compiler commands concurrently; raise on any failure."""
    try:
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
                 for cmd in cmds]
    except OSError as exc:
        raise AccelUnavailable(f"compiler invocation failed: {exc}") from exc
    failure = ""
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            failure = failure or "timed out after 120 s"
            continue
        if proc.returncode != 0 and not failure:
            failure = f"exit {proc.returncode}: {(out or '').strip()[:400]}"
    if failure:
        raise AccelUnavailable(f"compile failed ({failure})")


def _compile(cc: str, out: Path, extra_flags: tuple[str, ...] = ()) -> None:
    """Compile the units to objects concurrently, then link them into
    ``out`` (atomic via rename).

    Two units compiled side by side build faster than the same code as
    one: on a 2-CPU x86-64 host with gcc -O2, 0.70 s of wall time against
    1.11 s (median of 12 alternating runs).  No ``-ffast-math`` and no
    reassociation flags: the kernel's floats must round exactly as
    CPython's, or bit-identical fallback parity breaks.  ``extra_flags``
    is for instrumented builds (the CI sanitizer drill,
    :func:`build_into`); they reach both units and the link.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    include = sysconfig.get_paths()["include"]
    with tempfile.TemporaryDirectory(dir=out.parent) as tmpdir:
        objs = [str(Path(tmpdir) / f"{unit.stem}.o") for unit in _UNITS]
        tmp = str(Path(tmpdir) / out.name)
        _run([[cc, "-O2", "-fPIC", "-fvisibility=hidden", *extra_flags,
               f"-I{include}", "-c", str(unit), "-o", obj]
              for unit, obj in zip(_UNITS, objs)])
        _run([[cc, "-shared", *extra_flags, *objs, "-o", tmp]])
        os.replace(tmp, out)


def _load(path: Path):
    loader = ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(
        MODULE_NAME, str(path), loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def _build(path: Path, extra_flags: tuple[str, ...] = ()) -> None:
    cc = _find_compiler()
    if cc is None:
        raise AccelUnavailable("no C compiler found (tried the "
                               "interpreter's CC, then cc/gcc/clang)")
    start = time.perf_counter()
    try:
        _compile(cc, path, extra_flags)
    except OSError as exc:
        raise AccelUnavailable(f"cannot write build cache: {exc}") from exc
    log.info("compiled the accel kernel into %s in %.2f s", path,
             time.perf_counter() - start)


def _source_artifact() -> Path:
    if os.name != "posix":
        raise AccelUnavailable(
            f"compiled kernel is only built on POSIX hosts (os.name={os.name!r})")
    missing = [str(src) for src in _SOURCES if not src.is_file()]
    if missing:
        raise AccelUnavailable(f"kernel source missing: {', '.join(missing)}")
    return _artifact_path(_build_key([src.read_bytes() for src in _SOURCES]))


def build_into(extra_flags: tuple[str, ...]) -> Path:
    """(Re)build the kernel with ``extra_flags`` into the current cache
    directory, under the key :func:`load_kernel` will look up -- how
    the CI drill runs ``tests/accel`` against a sanitizer build (point
    ``UNION_ACCEL_CACHE`` at a scratch directory first)."""
    path = _source_artifact()
    _build(path, extra_flags)
    return path


def _check_abi(mod) -> None:
    """The loaded module must speak this package's ABI."""
    from repro.pdes.engine import Engine

    shift = getattr(mod, "SEQ_ORIGIN_SHIFT", None)
    abi = getattr(mod, "ABI_VERSION", None)
    if shift != Engine.SEQ_ORIGIN_SHIFT:
        raise AccelUnavailable(
            f"kernel ABI mismatch: SEQ_ORIGIN_SHIFT is {shift!r}, the "
            f"engines pack seq with {Engine.SEQ_ORIGIN_SHIFT}")
    if abi != KERNEL_ABI:
        raise AccelUnavailable(
            f"kernel ABI mismatch: kernel exports ABI_VERSION {abi!r}, "
            f"this package needs {KERNEL_ABI}")


def _load_kernel_uncached():
    path = _source_artifact()
    if not path.is_file():
        _build(path)
    try:
        mod = _load(path)
    except ImportError:
        # A truncated or corrupt cached artifact (a killed compile, a
        # full disk): drop it and rebuild once before giving up.
        try:
            path.unlink()
        except OSError as exc:
            raise AccelUnavailable(
                f"cannot replace corrupt kernel artifact {path}: {exc}") from exc
        _build(path)
        try:
            mod = _load(path)
        except ImportError as exc:
            raise AccelUnavailable(
                f"rebuilt kernel still fails to load: {exc}") from exc
    _check_abi(mod)
    return mod


def load_kernel():
    """The compiled kernel module, building it on first use.

    Raises :exc:`AccelUnavailable` (with the reason) when the kernel
    cannot be compiled, loaded, or is disabled via environment.  The
    outcome -- success or failure -- is memoized per process; only the
    ``UNION_ACCEL_DISABLE`` check is re-evaluated on every call.
    """
    if os.environ.get("UNION_ACCEL_DISABLE"):
        raise AccelUnavailable("disabled via UNION_ACCEL_DISABLE")
    global _memo
    if _memo is None:
        try:
            _memo = (_load_kernel_uncached(), "")
        except AccelUnavailable as exc:
            _memo = (None, str(exc))
            log.warning("compiled kernel unavailable, running the "
                        "pure-Python engine: %s", exc)
    mod, reason = _memo
    if mod is None:
        raise AccelUnavailable(reason)
    return mod


def kernel_status() -> dict:
    """Availability probe: ``{"available", "reason", "compiler"}``.

    Attempts the (memoized) build/load, so the first call on a
    compiler-equipped host pays the one-time compile.
    """
    try:
        load_kernel()
        return {"available": True, "reason": "",
                "compiler": _find_compiler()}
    except AccelUnavailable as exc:
        return {"available": False, "reason": str(exc),
                "compiler": _find_compiler()}


def _reset_for_tests() -> None:
    """Drop the memoized load outcome (test helper)."""
    global _memo
    _memo = None
