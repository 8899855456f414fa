"""The paper's workloads (Section IV-B).

Two ML applications written in coNCePTuaL and run through Union
(:mod:`repro.workloads.sources`), three SWM-style HPC skeletons
(MILC, Nekbone, LAMMPS), and three synthetics (3D nearest neighbour,
uniform random, hotspot).  :mod:`repro.workloads.catalog` assembles them
into the paper's Workload1/2/3 mixes (Table III) at paper or mini scale;
the synthetics double as scenario background-traffic injectors.
"""

from repro.workloads.sources import (
    ALEXNET_SOURCE,
    COSMOFLOW_SOURCE,
    HOTSPOT_SOURCE,
    PINGPONG_SOURCE,
    UNIFORM_RANDOM_SOURCE,
)
from repro.workloads.cosmoflow import cosmoflow_skeleton, COSMOFLOW_PAPER
from repro.workloads.alexnet import alexnet_skeleton, ALEXNET_PAPER
from repro.workloads.nearest_neighbor import nearest_neighbor
from repro.workloads.milc import milc
from repro.workloads.nekbone import nekbone
from repro.workloads.lammps import lammps
from repro.workloads.hotspot import hotspot
from repro.workloads.uniform_random import uniform_random
from repro.workloads.io_patterns import checkpointer, io_benchmark, ml_reader
from repro.workloads.catalog import WORKLOADS, AppSpec, WorkloadSpec, app_catalog

__all__ = [
    "COSMOFLOW_SOURCE",
    "ALEXNET_SOURCE",
    "HOTSPOT_SOURCE",
    "PINGPONG_SOURCE",
    "UNIFORM_RANDOM_SOURCE",
    "cosmoflow_skeleton",
    "COSMOFLOW_PAPER",
    "alexnet_skeleton",
    "ALEXNET_PAPER",
    "nearest_neighbor",
    "milc",
    "nekbone",
    "lammps",
    "hotspot",
    "uniform_random",
    "checkpointer",
    "io_benchmark",
    "ml_reader",
    "WORKLOADS",
    "AppSpec",
    "WorkloadSpec",
    "app_catalog",
]
