"""Workload catalog: Table III mixes at paper and mini scale.

``app_catalog(scale)`` returns per-application specs and ``WORKLOADS``
names the applications of the paper's three hybrid workloads.  This is
plain data: a scenario job ``{app = "milc"}`` names a catalog entry, and
:func:`repro.scenario.runner.build_manager` alone turns it into a
:class:`~repro.union.manager.Job`; a harness sweep cell is such a
scenario (:func:`repro.harness.experiment.cell_spec`).

Scales
------
* ``"paper"`` -- the exact Section IV-B rank counts and message sizes
  (constructible, used for configuration tables; simulating them in
  pure Python is not practical);
* ``"mini"`` -- rank counts scaled ~32x down and message sizes scaled so
  a sweep configuration simulates in seconds, preserving each
  application's *relative* communication intensity (who is intensive,
  who is small-message, who blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.workloads.alexnet import ALEXNET_PAPER, alexnet_skeleton
from repro.workloads.cosmoflow import COSMOFLOW_PAPER, cosmoflow_skeleton
from repro.workloads.lammps import LAMMPS_PAPER, lammps
from repro.workloads.milc import MILC_PAPER, milc
from repro.workloads.nearest_neighbor import NN_PAPER, nearest_neighbor
from repro.workloads.nekbone import NEKBONE_PAPER, nekbone
from repro.workloads.uniform_random import UR_PAPER, uniform_random


@dataclass
class AppSpec:
    """One application at one scale."""

    name: str
    kind: str  # "skeleton" | "program"
    nranks: int
    params: dict[str, Any] = field(default_factory=dict)
    skeleton_factory: Callable | None = None
    program: Callable | None = None
    ml: bool = False  # ML vs HPC classification used in the analysis


@dataclass
class WorkloadSpec:
    """One Table III row."""

    name: str
    apps: list[str]


#: Table III: the three hybrid workloads.
WORKLOADS: dict[str, WorkloadSpec] = {
    "workload1": WorkloadSpec("workload1", ["cosmoflow", "alexnet", "lammps", "nn", "ur"]),
    "workload2": WorkloadSpec("workload2", ["cosmoflow", "alexnet", "lammps", "milc", "nn"]),
    "workload3": WorkloadSpec("workload3", ["cosmoflow", "alexnet", "nekbone", "milc", "nn"]),
}

#: Applications appearing in the Figure 7/9 panels.
PANEL_APPS = ["lammps", "nekbone", "milc", "alexnet", "cosmoflow"]


def _paper_catalog() -> dict[str, AppSpec]:
    return {
        "cosmoflow": AppSpec(
            "cosmoflow", "skeleton", COSMOFLOW_PAPER["nranks"],
            {k: v for k, v in COSMOFLOW_PAPER.items() if k != "nranks"},
            skeleton_factory=cosmoflow_skeleton, ml=True,
        ),
        "alexnet": AppSpec(
            "alexnet", "skeleton", ALEXNET_PAPER["nranks"],
            {k: v for k, v in ALEXNET_PAPER.items() if k != "nranks"},
            skeleton_factory=alexnet_skeleton, ml=True,
        ),
        "nn": AppSpec("nn", "program", 512, dict(NN_PAPER), program=nearest_neighbor),
        "milc": AppSpec("milc", "program", 4096, dict(MILC_PAPER), program=milc),
        "nekbone": AppSpec("nekbone", "program", 2197, dict(NEKBONE_PAPER), program=nekbone),
        "lammps": AppSpec("lammps", "program", 2048, dict(LAMMPS_PAPER), program=lammps),
        "ur": AppSpec("ur", "program", 4096, dict(UR_PAPER), program=uniform_random),
    }


def _mini_catalog() -> dict[str, AppSpec]:
    """~32x smaller rank counts; sizes/intervals tuned so one sweep
    configuration runs in seconds while preserving relative intensity."""
    return {
        # ML apps: frequent heavy bursts so their traffic overlaps the
        # HPC apps throughout the horizon (paper: 28.15 MiB / 129 ms and
        # 235 MiB / update at 512-4096 ranks saturate the shared links).
        "cosmoflow": AppSpec(
            "cosmoflow", "skeleton", 24,
            {"iters": 10, "abytes": 768 * 1024, "cmsecs": 1},
            skeleton_factory=cosmoflow_skeleton, ml=True,
        ),
        "alexnet": AppSpec(
            "alexnet", "skeleton", 16,
            {
                "warmups": 8, "updates": 8, "tail": 2,
                "gbytes": 1536 * 1024, "nar": 2, "negbytes": 25, "cmsecs": 0.8,
            },
            skeleton_factory=alexnet_skeleton, ml=True,
        ),
        # HPC apps: many light iterations so they stay active (and thus
        # exposed to interference) for most of the horizon.
        "nn": AppSpec(
            "nn", "program", 16,
            {"dims": (4, 2, 2), "msg_bytes": 32768, "iters": 16, "compute_s": 0.3e-3},
            program=nearest_neighbor,
        ),
        "milc": AppSpec(
            "milc", "program", 16,
            {"dims": (2, 2, 2, 2), "msg_bytes": 65536, "iters": 12, "compute_s": 0.3e-3},
            program=milc,
        ),
        "nekbone": AppSpec(
            "nekbone", "program", 27,
            {"dims": (3, 3, 3), "msg_sizes": (8, 512, 4096, 20480), "iters": 24, "compute_s": 0.25e-3},
            program=nekbone,
        ),
        "lammps": AppSpec(
            "lammps", "program", 16,
            {"dims": (4, 2, 2), "msg_sizes": (4, 512, 4096, 16384), "iters": 24,
             "compute_s": 0.25e-3, "allreduce_every": 2},
            program=lammps,
        ),
        "ur": AppSpec(
            "ur", "program", 32,
            {"msg_bytes": 10240, "interval_s": 0.5e-3, "iters": 0},
            program=uniform_random,
        ),
    }


def app_catalog(scale: str = "mini") -> dict[str, AppSpec]:
    """Per-application specs at the requested scale."""
    if scale == "paper":
        return _paper_catalog()
    if scale == "mini":
        return _mini_catalog()
    raise ValueError(f"unknown scale {scale!r}; expected 'paper' or 'mini'")
