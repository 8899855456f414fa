"""The server's durable job journal.

One :class:`JobRecord` per submitted spec, persisted as a JSON file
under ``<state>/jobs/`` with atomic writes -- the journal *is* the
source of truth across server restarts: :meth:`JobStore.recoverable`
lists the queued/running entries a restarting server re-enqueues
(each re-runs from the spec its record carries).

States form a tiny machine::

    queued -> running -> done
                      -> failed      (crashed too often, or raised)
    queued/running -> cancelled      (client asked)

``done`` records only the result *digest*; the result document itself
lives in the content-addressed cache, so the journal stays small and a
re-submitted spec shares its storage.
"""

from __future__ import annotations

import enum
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


class JobState(str, enum.Enum):
    """Lifecycle states of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class JobRecord:
    """One journal entry (plain data, JSON round-trip)."""

    job_id: str
    digest: str
    scenario: str
    state: JobState = JobState.QUEUED
    #: Result came straight from the cache, no simulation ran.
    cached: bool = False
    #: Times this job has been (re)started; bumped on crash-requeue.
    attempts: int = 0
    #: Last failure message (``state == failed``), or a crash note.
    error: str | None = None
    #: Worker slot and OS pid currently running the job (while running).
    worker: int | None = None
    pid: int | None = None
    #: The full validated spec mapping (self-contained: includes
    #: ``base_dir`` when the spec reads relative sources).
    spec: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "digest": self.digest,
            "scenario": self.scenario,
            "state": self.state.value,
            "cached": self.cached,
            "attempts": self.attempts,
            "spec": dict(self.spec),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.worker is not None:
            out["worker"] = self.worker
        if self.pid is not None:
            out["pid"] = self.pid
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        return cls(
            job_id=data["job_id"],
            digest=data["digest"],
            scenario=data["scenario"],
            state=JobState(data["state"]),
            cached=bool(data.get("cached", False)),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"),
            worker=data.get("worker"),
            pid=data.get("pid"),
            spec=dict(data.get("spec", {})),
        )


_JOB_ID = re.compile(r"^job-(\d+)$")


class JobStore:
    """Directory-backed journal of :class:`JobRecord` entries."""

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._seq = max(
            (int(m.group(1)) for p in self.jobs_dir.glob("job-*.json")
             if (m := _JOB_ID.match(p.stem))),
            default=0,
        )

    def new_job(self, digest: str, scenario: str,
                spec: Mapping[str, Any]) -> JobRecord:
        """Mint, persist and return the next queued record.

        The id is claimed by exclusive create, so two stores on one
        state directory never mint the same id: one another store has
        already taken is stepped past.
        """
        while True:
            self._seq += 1
            record = JobRecord(
                job_id=f"job-{self._seq:06d}",
                digest=digest,
                scenario=scenario,
                spec=dict(spec),
            )
            try:
                return self.save(record, exclusive=True)
            except FileExistsError:
                continue

    def save(self, record: JobRecord, exclusive: bool = False) -> JobRecord:
        """Write the record to a temp file, then move it into place
        atomically: ``os.replace`` overwrites, while ``exclusive`` uses
        ``os.link``, which raises ``FileExistsError`` when the id is
        already taken (readers never see a half-written claim)."""
        path = self.jobs_dir / f"{record.job_id}.json"
        fd, tmp = tempfile.mkstemp(dir=self.jobs_dir, prefix=f".{record.job_id}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record.to_dict(), sort_keys=True,
                                    indent=2) + "\n")
            if exclusive:
                os.link(tmp, path)
                os.unlink(tmp)
            else:
                os.replace(tmp, path)
        except Exception:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return record

    def load(self, job_id: str) -> JobRecord:
        path = self.jobs_dir / f"{job_id}.json"
        if not path.is_file():
            raise KeyError(f"no job {job_id!r} in {self.jobs_dir}")
        return JobRecord.from_dict(json.loads(path.read_text()))

    def list(self) -> list[JobRecord]:
        """Every journal entry, in submission (id) order."""
        return [
            JobRecord.from_dict(json.loads(p.read_text()))
            for p in sorted(self.jobs_dir.glob("job-*.json"))
            if _JOB_ID.match(p.stem)
        ]

    def recoverable(self) -> list[JobRecord]:
        """Entries a restarting server must re-enqueue: anything the
        previous process accepted but never finished."""
        return [r for r in self.list()
                if r.state in (JobState.QUEUED, JobState.RUNNING)]

    def counts(self) -> dict[str, int]:
        out = {s.value: 0 for s in JobState}
        for r in self.list():
            out[r.state.value] += 1
        return out
