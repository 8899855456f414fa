"""Lazy compilation and loading of the ``_union_accel`` C kernel.

There is no build step at install time and no build-system dependency:
the kernel source ships as package data (``_kernel.c``) and is compiled
on first use with whatever C compiler the host has, into a per-user
cache keyed by the source hash (so editing the source, switching
interpreters or upgrading the package each get a fresh build, and
concurrent processes race benignly via an atomic rename).

Degradation is a feature, not an error: *anything* that prevents a
native kernel -- no compiler, a failing compile, a cached artifact that
stays unloadable after one rebuild, a kernel whose exported ABI does not
match this package, a non-POSIX host, the ``UNION_ACCEL_DISABLE``
environment switch -- raises
:exc:`AccelUnavailable` with a human-readable reason, and the accel
engine factories fall back to the pure-Python engines (which commit the
bit-identical event sequence) recording that reason.  ``pip install``
and import never require a compiler.

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
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

__all__ = ["AccelUnavailable", "load_kernel", "kernel_status", "build_into"]

MODULE_NAME = "_union_accel"
_SOURCE = Path(__file__).with_name("_kernel.c")

#: The kernel's ``ABI_VERSION``: the layout of the adoption row
#: (:mod:`repro.accel.dispatch`) and the ``Kernel`` method signatures
#: :mod:`repro.accel.engines` calls.  Bump both sides together.
KERNEL_ABI = 2

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


def _build_key(source: bytes) -> str:
    """Cache key: source bytes + interpreter ABI, nothing else."""
    h = hashlib.sha256()
    h.update(source)
    h.update(sys.implementation.cache_tag.encode())
    return h.hexdigest()[:16]


def _artifact_path(key: str) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _cache_dir() / f"{MODULE_NAME}.{key}{suffix}"


def _compile(cc: str, out: Path, extra_flags: tuple[str, ...] = ()) -> None:
    """Compile the kernel source to ``out`` (atomic via rename).

    No ``-ffast-math`` and no reassociation flags: the kernel's floats
    must round exactly as CPython's, or bit-identical fallback parity
    breaks.  ``extra_flags`` is for instrumented builds (the CI
    sanitizer drill, :func:`build_into`).
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    include = sysconfig.get_paths()["include"]
    fd, tmp = tempfile.mkstemp(suffix=out.suffix, dir=out.parent)
    os.close(fd)
    cmd = [cc, "-O2", "-fPIC", "-shared", *extra_flags, f"-I{include}",
           str(_SOURCE), "-o", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp)
        raise AccelUnavailable(f"compiler invocation failed: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        detail = (proc.stderr or proc.stdout or "").strip()
        raise AccelUnavailable(
            f"compile failed (exit {proc.returncode}): {detail[:400]}")
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
    try:
        _compile(cc, path, extra_flags)
    except OSError as exc:
        raise AccelUnavailable(f"cannot write build cache: {exc}") from exc


def _source_artifact() -> Path:
    if os.name != "posix":
        raise AccelUnavailable(
            f"compiled kernel is only built on POSIX hosts (os.name={os.name!r})")
    if not _SOURCE.is_file():
        raise AccelUnavailable(f"kernel source missing: {_SOURCE}")
    return _artifact_path(_build_key(_SOURCE.read_bytes()))


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
