"""The layered Union benchmark: 8 workloads, end-to-end and per-layer metrics.

Everything is measured from outside the program, by timing calls into
public functions of ``repro``; nothing under ``src/`` knows the
benchmark exists.  ``python3 -m bench run --workload NAME`` is the one
command (see ``bench/README.md`` and ``BENCHMARK.json``).

The benchmark's command may not name ``src`` (it lies outside the
benchmark's own directory), so importing this package puts the
checkout's ``src`` on ``sys.path`` when it is there and not yet
importable.  In a directory without ``src`` the import of ``repro``
fails later, which is how the runner refuses to run there.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

_SRC = ROOT / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


class CheckFailed(Exception):
    """An op produced a wrong output; the message says which check.
    The runner counts it as a failed op."""
