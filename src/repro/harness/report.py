"""Plain-text rendering of tables and series (the benches' output)."""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np


def render_table(headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_series(series: np.ndarray, width: int = 60, label: str = "") -> str:
    """Render a numeric series as a unicode sparkline (plus peak value)."""
    blocks = " .:-=+*#%@"
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        return f"{label} (empty)"
    if arr.size > width:
        # Downsample by max within buckets to keep peaks visible.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].max() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])])
    peak = arr.max()
    if peak <= 0:
        line = " " * arr.size
    else:
        idx = np.minimum((arr / peak * (len(blocks) - 1)).astype(int), len(blocks) - 1)
        line = "".join(blocks[i] for i in idx)
    return f"{label}|{line}| peak={format_bytes(peak)}"


def format_bytes(n: float) -> str:
    """Human-readable byte count."""
    n = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    raise AssertionError("unreachable")  # pragma: no cover


def format_seconds(s: float) -> str:
    """Human-readable duration (auto us/ms/s)."""
    if s == 0:
        return "0"
    if abs(s) < 1e-3:
        return f"{s * 1e6:.2f} us"
    if abs(s) < 1.0:
        return f"{s * 1e3:.3f} ms"
    return f"{s:.3f} s"


def engine_line(e: Mapping[str, Any]) -> str:
    """The text reports' ``engine:`` line from an ``engine`` stanza."""
    line = f"engine: {e['type']}"
    if "windows" in e:
        line += (f", {e['partitions']} partitions "
                 f"({e.get('scheme', '?')}-partitioned), lookahead "
                 f"{format_seconds(e['lookahead'])}, {e['windows']} windows")
    if "backend" in e:
        line += f", backend {e['backend']}"
        if e.get("backend_reason"):
            line += f" ({e['backend_reason']})"
        else:
            line += f", fabric {e['fabric']}"
            if e.get("fabric_reason"):
                line += f" ({e['fabric_reason']})"
            line += f", ranks {e['ranks']}"
            if e.get("ranks_reason"):
                line += f" ({e['ranks_reason']})"
    return line
