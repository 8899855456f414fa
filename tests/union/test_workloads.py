"""Workload implementations and the Table III catalog."""

import pytest

from repro.mpi.engine import JobSpec, SimMPI
from repro.network.config import NetworkConfig
from repro.network.dragonfly import Dragonfly1D
from repro.network.fabric import NetworkFabric
from repro.workloads.base import grid_coords, grid_rank, torus_neighbors
from repro.harness.experiment import ExperimentConfig, cell_spec
from repro.scenario import ScenarioError, build_manager, parse_scenario
from repro.workloads.catalog import PANEL_APPS, WORKLOADS, app_catalog
from repro.workloads.lammps import lammps
from repro.workloads.milc import milc
from repro.workloads.nearest_neighbor import nearest_neighbor
from repro.workloads.nekbone import nekbone
from repro.workloads.uniform_random import uniform_random


def run_program(program, nranks, params, until=0.2):
    fabric = NetworkFabric(Dragonfly1D.mini(), NetworkConfig(seed=1), routing="min")
    mpi = SimMPI(fabric)
    mpi.add_job(JobSpec("w", nranks, program, list(range(nranks)), params))
    mpi.run(until=until)
    return mpi.results()[0], fabric


# -- grid helpers --------------------------------------------------------------


def test_grid_roundtrip():
    dims = (3, 4, 5)
    for rank in range(60):
        assert grid_rank(grid_coords(rank, dims), dims) == rank


def test_torus_neighbors_count_and_wrap():
    nbs = torus_neighbors(0, (4, 4, 4))
    assert len(nbs) == 6
    assert 3 in nbs  # -x wraps to coord 3


# -- individual workloads -------------------------------------------------------


def test_nearest_neighbor_runs_and_exchanges():
    res, _ = run_program(
        nearest_neighbor, 8, {"dims": (2, 2, 2), "iters": 4, "msg_bytes": 4096}
    )
    assert res.finished
    # 6 neighbour messages per rank per iteration.
    assert all(s.msgs_recvd == 6 * 4 for s in res.rank_stats)


def test_nearest_neighbor_grid_mismatch():
    with pytest.raises(ValueError, match="grid"):
        run_program(nearest_neighbor, 7, {"dims": (2, 2, 2), "iters": 1})


def test_milc_runs_4d():
    res, _ = run_program(milc, 16, {"dims": (2, 2, 2, 2), "iters": 3, "msg_bytes": 8192})
    assert res.finished
    assert all(s.msgs_recvd == 8 * 3 for s in res.rank_stats)


def test_milc_needs_4_dims():
    with pytest.raises(ValueError, match="4 grid"):
        run_program(milc, 8, {"dims": (2, 2, 2), "iters": 1})


def test_nekbone_mixes_collectives_and_p2p():
    res, _ = run_program(
        nekbone, 8, {"dims": (2, 2, 2), "iters": 4, "msg_sizes": (8, 1024)}
    )
    assert res.finished
    counts = res.event_counts()
    assert counts["MPI_Allreduce"] == 2 * 4 * 8
    assert counts["MPI_Isend"] == 6 * 4 * 8


def test_lammps_uses_blocking_sends():
    res, _ = run_program(
        lammps, 8, {"dims": (2, 2, 2), "iters": 4, "msg_sizes": (4, 2048)}
    )
    assert res.finished
    counts = res.event_counts()
    assert counts["MPI_Send"] == 6 * 4 * 8
    assert counts["MPI_Allreduce"] == 2 * 8  # every 2nd iteration


def test_uniform_random_endless_until_horizon():
    res, fabric = run_program(
        uniform_random, 8, {"msg_bytes": 1024, "interval_s": 1e-3, "iters": 0}, until=0.02
    )
    assert not res.finished  # endless by design
    assert fabric.messages_sent > 8


def test_uniform_random_never_self_sends():
    res, _ = run_program(
        uniform_random, 4, {"msg_bytes": 64, "interval_s": 1e-4, "iters": 50}
    )
    assert res.finished
    for rank, s in enumerate(res.rank_stats):
        # latency samples are recorded at receivers; self-sends would
        # show up as src == receiver, checked via message counts instead
        assert s.msgs_sent == 50


def test_uniform_random_deterministic_by_seed():
    a, _ = run_program(uniform_random, 4, {"iters": 20, "seed": 5})
    b, _ = run_program(uniform_random, 4, {"iters": 20, "seed": 5})
    assert [s.msgs_recvd for s in a.rank_stats] == [s.msgs_recvd for s in b.rank_stats]


# -- catalog ------------------------------------------------------------------------


def test_workloads_match_table3():
    assert set(WORKLOADS) == {"workload1", "workload2", "workload3"}
    assert WORKLOADS["workload1"].apps == ["cosmoflow", "alexnet", "lammps", "nn", "ur"]
    assert WORKLOADS["workload2"].apps == ["cosmoflow", "alexnet", "lammps", "milc", "nn"]
    assert WORKLOADS["workload3"].apps == ["cosmoflow", "alexnet", "nekbone", "milc", "nn"]


def test_paper_catalog_rank_counts():
    cat = app_catalog("paper")
    assert cat["cosmoflow"].nranks == 1024
    assert cat["alexnet"].nranks == 512
    assert cat["nn"].nranks == 512
    assert cat["milc"].nranks == 4096
    assert cat["nekbone"].nranks == 2197
    assert cat["lammps"].nranks == 2048
    assert cat["ur"].nranks == 4096


def test_mini_catalog_fits_mini_systems():
    cat = app_catalog("mini")
    for w in WORKLOADS.values():
        total = sum(cat[a].nranks for a in w.apps)
        assert total <= 144


def test_ml_flags():
    cat = app_catalog("mini")
    assert cat["cosmoflow"].ml and cat["alexnet"].ml
    assert not cat["milc"].ml


def test_build_jobs():
    apps = WORKLOADS["workload3"].apps
    jobs = build_manager(parse_scenario({"jobs": [{"app": a} for a in apps]})).jobs
    assert [j.name for j in jobs] == apps
    cat = app_catalog("mini")
    for job in jobs:
        assert (job.skeleton is not None) == (cat[job.name].kind == "skeleton")
        assert job.nranks == cat[job.name].nranks
    with pytest.raises(ScenarioError, match="unknown workload"):
        cell_spec(ExperimentConfig(workload="workload9"))
    with pytest.raises(ScenarioError, match="unknown application"):
        parse_scenario({"jobs": [{"app": "nosuch"}]})


def test_build_baseline_job():
    (job,) = build_manager(cell_spec(ExperimentConfig(workload="baseline:milc"))).jobs
    assert job.name == "milc"
    assert job.program is not None


def test_unknown_scale():
    with pytest.raises(ValueError, match="unknown scale"):
        app_catalog("huge")


def test_panel_apps_subset_of_catalog():
    cat = app_catalog("mini")
    assert set(PANEL_APPS) <= set(cat)
