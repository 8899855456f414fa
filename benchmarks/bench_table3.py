"""Table III: hybrid HPC and ML workload compositions.

Prints the three workload mixes with their per-application rank counts
and key parameters at both scales, and benchmarks job-list assembly
(a Workload3 scenario spec parsed and wired into a manager, skeleton
translation included on first use).
"""

from benchmarks.conftest import banner, report
from repro.harness.report import render_table
from repro.scenario import build_manager, parse_scenario
from repro.workloads.catalog import WORKLOADS, app_catalog


def test_benchmark_build_jobs(benchmark):
    data = {"jobs": [{"app": a} for a in WORKLOADS["workload3"].apps]}
    jobs = benchmark(lambda: build_manager(parse_scenario(data)).jobs)
    assert len(jobs) == 5


def test_benchmark_table3_rows(benchmark):
    catalogs = benchmark.pedantic(
        lambda: {s: app_catalog(s) for s in ("paper", "mini")}, rounds=1, iterations=1
    )
    rows = []
    for name, spec in WORKLOADS.items():
        ml = [a for a in spec.apps if catalogs["paper"][a].ml]
        swm = [a for a in spec.apps if not catalogs["paper"][a].ml and a != "ur"]
        synth = [a for a in spec.apps if a == "ur"]
        rows.append((name, ", ".join(ml), ", ".join(swm), ", ".join(synth) or "-"))
    report(banner("Table III: hybrid HPC and ML workloads"))
    report(render_table(["Workload", "ML Skeletons", "SWM Skeletons", "Synthetic"], rows))

    detail = []
    for app, spec in catalogs["paper"].items():
        detail.append((app, spec.kind, spec.nranks, catalogs["mini"][app].nranks))
    report(banner("Per-application configuration"))
    report(render_table(["app", "kind", "paper ranks", "mini ranks"], sorted(detail)))

    assert rows[0][0] == "workload1"
    assert {a for _, s in WORKLOADS.items() for a in s.apps} == set(catalogs["paper"])
