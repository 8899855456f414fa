"""Batch runner: fan a directory of scenario specs into one report.

``union-sim batch <dir>`` discovers every ``*.toml``/``*.json`` spec
under a directory, runs each scenario (sequentially, or across worker
processes with ``--jobs N`` -- scenarios are independent simulations, so
they parallelize embarrassingly on :mod:`repro.pool`), and reduces
everything to one summary table plus an optional JSON report.  A spec
that fails to parse or crashes mid-run is reported alongside the
successes instead of aborting the rest of the batch.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.harness.report import format_seconds, render_table
from repro.pool import WorkerCrashed, WorkerPool
from repro.scenario.runner import run_scenario
from repro.scenario.spec import (
    MetricsEntry,
    ScenarioError,
    load_scenario,
    parse_engine_table,
)


def pool_map(fn, items, workers: int = 1,
             on_crash: "Callable[[Any], Any] | None" = None) -> list:
    """Map ``fn`` over ``items``, optionally across a process pool.

    The shared fan-out helper of the batch runner, the harness sweeps,
    the fuzz harness and episode seed-batches: results always come back
    in input order, and ``workers <= 1`` (or a single item) stays
    in-process.  Otherwise a :class:`~repro.pool.WorkerPool` of spawned
    processes runs it, so ``fn`` and the items must pickle.

    A worker that *dies* mid-item (SIGKILL, OOM) costs a re-run of that
    item alone, on a respawned worker; an item that kills its worker
    twice maps through ``on_crash(item)`` (batch-style callers' per-item
    error entries) or, with no hook, raises :class:`~repro.pool.WorkerCrashed`.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(i) for i in items]
    results: dict[int, Any] = {}
    crashed: set[int] = set()
    with WorkerPool(min(workers, len(items))) as pool:
        for i, item in enumerate(items):
            pool.submit(i, fn, item)
        while len(results) < len(items):
            for kind, i, value in pool.step():
                if kind == "done":
                    results[i] = value
                elif kind == "error":
                    raise value
                elif kind == "died" and i not in crashed:
                    crashed.add(i)
                    pool.submit(i, fn, items[i])
                elif kind == "died" and on_crash is not None:
                    results[i] = on_crash(items[i])
                elif kind == "died":
                    raise WorkerCrashed(
                        f"worker process died twice while mapping item {i} "
                        f"({items[i]!r}); pass on_crash= to turn crashes "
                        "into per-item results"
                    )
    return [results[i] for i in range(len(items))]


def discover_specs(directory: str | Path) -> list[Path]:
    """Every scenario file in ``directory``, sorted for stable ordering."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ScenarioError(f"not a directory: {directory}")
    return sorted(
        p for p in directory.iterdir()
        if p.suffix.lower() in (".toml", ".json") and p.is_file()
    )


def run_spec_file(
    path: str | Path,
    metrics_dir: str | Path | None = None,
    metrics_filter: list[str] | None = None,
    engine: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Run one spec file; always returns a JSON-able dict.

    Shaped for pool workers: errors become
    ``{"scenario", "path", "error"}`` records instead of exceptions, so
    one broken spec cannot take down a batch.

    ``metrics_dir`` routes each scenario's telemetry rows to
    ``<metrics_dir>/<spec filename>.metrics.jsonl`` (overriding the
    spec's own ``[metrics] jsonl``); the full filename keeps ``a.toml``
    and ``a.json`` in one directory from clobbering each other.
    ``metrics_filter`` overrides the export globs.  The spec's opt-in
    instrument flags are honored either way.  ``engine`` replaces every
    spec's ``[engine]`` table (the ``--engine`` batch override); it is
    validated like a parsed table, so a bad name fails per spec with
    the registry's message.
    """
    path = Path(path)
    try:
        spec = load_scenario(path)
        if metrics_dir is not None or metrics_filter:
            jsonl = (str(Path(metrics_dir) / f"{path.name}.metrics.jsonl")
                     if metrics_dir is not None else None)
            spec.metrics = (spec.metrics or MetricsEntry()).overridden(
                jsonl=jsonl, filter=metrics_filter,
            )
        if engine is not None:
            spec.engine = parse_engine_table(engine)
        result = run_scenario(spec).to_json_dict()
        result["path"] = str(path)
        return result
    except Exception as exc:  # noqa: BLE001 - the batch must survive any spec
        return {
            "scenario": path.stem,
            "path": str(path),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


@dataclass
class BatchResult:
    """All per-scenario JSON dicts of one batch run."""

    results: list[dict[str, Any]] = field(default_factory=list)

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.results if "error" in r]

    def to_json_dict(self) -> dict[str, Any]:
        return {"scenarios": self.results}

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def run_batch(
    paths: list[Path] | str | Path,
    workers: int = 1,
    metrics_dir: str | Path | None = None,
    metrics_filter: list[str] | None = None,
    engine: dict[str, Any] | None = None,
) -> BatchResult:
    """Run many scenario files; ``paths`` may also be a directory.

    ``workers > 1`` fans the specs out over a process pool; each worker
    simulates whole scenarios independently (results come back in input
    order either way).  ``metrics_dir``/``metrics_filter``/``engine``
    forward to :func:`run_spec_file` (one telemetry JSONL per scenario;
    one execution-engine override for every spec).
    """
    if isinstance(paths, (str, Path)):
        paths = discover_specs(paths)
    if not paths:
        raise ScenarioError("no .toml/.json scenario files to run")
    if metrics_dir is not None:
        try:
            Path(metrics_dir).mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            # exist_ok only tolerates an existing *directory*.
            raise ScenarioError(
                f"metrics directory {metrics_dir} collides with an existing "
                f"file: {exc}"
            ) from None
        # Metrics files key on the spec *filename*; an explicit path
        # list may carry same-named specs from different directories,
        # which would silently overwrite (or race on) one JSONL.
        by_name: dict[str, Path] = {}
        for p in map(Path, paths):
            other = by_name.setdefault(p.name, p)
            if other != p:
                raise ScenarioError(
                    f"specs {other} and {p} would both write "
                    f"{Path(metrics_dir) / (p.name + '.metrics.jsonl')}; "
                    "rename one or batch them separately"
                )
    worker = partial(run_spec_file, metrics_dir=metrics_dir,
                     metrics_filter=metrics_filter, engine=engine)
    return BatchResult(pool_map(worker, paths, workers,
                                on_crash=_crashed_spec_entry))


def _crashed_spec_entry(path: Path) -> dict[str, Any]:
    """The per-item error record for a spec that killed its worker --
    same shape as :func:`run_spec_file`'s exception records, so crash
    and crash-free failures render identically in the summary."""
    path = Path(path)
    return {
        "scenario": path.stem,
        "path": str(path),
        "error": "WorkerCrashed: the worker process running this spec "
                 "died (killed or out of memory)",
    }


def render_batch_summary(batch: BatchResult) -> str:
    """The ``union-sim batch`` summary: one row per scenario."""
    rows = []
    for r in batch.results:
        if "error" in r:
            rows.append((r["scenario"], "ERROR", "-", "-", "-", r["error"]))
            continue
        jobs = r["jobs"]
        apps = [j for j in jobs if not j["background"]]
        done = sum(1 for j in apps if j["finished"])
        worst = max((j["max_latency"] for j in apps if j["started"]), default=0.0)
        note = "; ".join(
            f"{j['name']}: {j['skip_reason']}" for j in jobs if j["skip_reason"]
        )
        rows.append((
            r["scenario"],
            f"{done}/{len(apps)} apps done",
            format_seconds(r["end_time"]),
            r["events"],
            format_seconds(worst),
            note or "-",
        ))
    return render_table(
        ["scenario", "status", "end time", "events", "worst max lat", "notes"],
        rows,
        title=f"batch: {len(batch.results)} scenario(s), "
              f"{len(batch.failures)} failure(s)",
    )
