"""Command-line interface: ``union-sim``.

Subcommands
-----------
``translate``  -- compile a coNCePTuaL file and print the Union skeleton
``validate``   -- run the Section V application-vs-skeleton validation
``run``        -- simulate one workload/placement/routing configuration
``simulate``   -- translate a coNCePTuaL file and simulate it in situ
``scenario``   -- run a declarative TOML/JSON scenario spec
``batch``      -- run every scenario spec in a directory, one summary
``env``        -- roll a scenario as a gym-style episode (or list policies)
``fuzz``       -- property-check generated scenarios over a seed sweep
``serve``      -- run the persistent simulation service (queue + cache)
``submit``     -- send one scenario spec to a running service
``jobs``       -- list/inspect/cancel jobs on a running service
``sweep``      -- run the full Figure 7/9 sweep and print summaries
``systems``    -- print the Table II system configurations
``topologies`` -- print the full fabric-model roster
``engines``    -- print the execution-engine roster

The subcommand reference with example output lives in ``docs/cli.md``;
the scenario spec format in ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness.configs import COMBOS, NETWORKS, make_topology
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import format_bytes, format_seconds, render_table
from repro.harness.sweeps import latency_sweep, panel_stats
from repro.registry import (
    ENGINE_AXES,
    RegistryError,
    all_routing_names,
    engine_registry,
    placement_registry,
    topology_registry,
)
from repro.union.translator import translate
from repro.union.validation import validate_skeleton
from repro.workloads.catalog import PANEL_APPS, WORKLOADS


def _network_choices() -> list[str]:
    """Registry topology names plus their aliases (legacy '1d'/'2d' first)."""
    aliases = list(topology_registry.aliases())
    return aliases + [n for n in topology_registry.names() if n not in aliases]


def _resolve_policy_defaults(args: argparse.Namespace) -> None:
    """Fill unset --routing/--placement from the network's registry entry.

    Each topology carries its own sensible defaults (adp/rg on the
    dragonflies, dor/rn on a torus, ...), so leaving the flags off works
    on every network instead of only on the dragonflies.
    """
    spec = topology_registry.get(args.network)
    if args.routing is None:
        args.routing = spec.default_routing
    if args.placement is None:
        args.placement = spec.default_placement


def _cmd_translate(args: argparse.Namespace) -> int:
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    skel = translate(source, args.name)
    print(skel.python_source)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    report = validate_skeleton(source, args.ntasks, name=args.name)
    print(render_table(
        ["MPI function", "Application", "Union skeleton"],
        report.table4_rows(),
        title=f"Event counts ({args.name}, {args.ntasks} ranks)",
    ))
    print()
    print(render_table(
        ["Rank", "Application bytes", "Skeleton bytes"],
        report.table5_rows(),
        title="Bytes transmitted per rank",
    ))
    app_mem, skel_mem = report.memory_comparison()
    print(f"\nPeak comm buffer: application={format_bytes(app_mem)}, skeleton={format_bytes(skel_mem)}")
    print(f"Validation {'PASSED' if report.ok else 'FAILED'}")
    for m in report.mismatches:
        print(f"  mismatch: {m}")
    return 0 if report.ok else 1


def _check_metrics_path(path: str | None) -> str | None:
    """Fail *before* simulating on an unwritable --metrics path."""
    if path is None:
        return None
    from pathlib import Path

    parent = Path(path).parent
    if not parent.is_dir():
        return f"--metrics: directory {parent} does not exist"
    return None


def _engine_override(args: argparse.Namespace) -> dict | None:
    """The ``[engine]``-style table the --engine/--partitions flags ask for.

    ``--partitions`` alone implies the conservative engine (partitions
    are meaningless on the sequential one).
    """
    if args.engine is None and args.partitions is None:
        return None
    table: dict = {"type": args.engine or "conservative"}
    if args.partitions is not None:
        table["partitions"] = args.partitions
    return table


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default=None, metavar="FILE",
        help="run the command under cProfile and dump pstats data to "
             "FILE (inspect with 'python -m pstats FILE')")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The shared execution-engine flags (run/scenario/batch)."""
    parser.add_argument(
        "--engine", choices=list(engine_registry.names()), default=None,
        help="execution engine ('union-sim engines' lists them; "
             "default: the spec's [engine] table, else sequential)")
    parser.add_argument(
        "--partitions", type=int, default=None, metavar="N",
        help="LP partitions for the conservative engine "
             "(implies --engine conservative)")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.telemetry import JsonlSink, Telemetry

    if args.metrics_filter and not args.metrics:
        # A filter with nowhere to export is a silent no-op; refuse it.
        print("error: --metrics-filter requires --metrics FILE.jsonl",
              file=sys.stderr)
        return 2
    if (problem := _check_metrics_path(args.metrics)) is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    _resolve_policy_defaults(args)
    engine_table = _engine_override(args)
    cfg = ExperimentConfig(
        network=args.network,
        workload=args.workload,
        placement=args.placement,
        routing=args.routing,
        scale=args.scale,
        seed=args.seed,
        engine=engine_table["type"] if engine_table else None,
        partitions=args.partitions,
    )
    telemetry = Telemetry() if args.metrics else None
    try:
        # Capability mismatches (routing/placement the topology cannot
        # run) surface here with the registry's choose-from message.
        res = run_experiment(cfg, telemetry=telemetry)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if telemetry is not None:
        try:
            telemetry.export(JsonlSink(args.metrics), args.metrics_filter or None,
                             meta={"network": cfg.network, "workload": cfg.workload,
                                   "combo": cfg.combo, "seed": cfg.seed})
        except OSError as exc:
            print(f"error: --metrics: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.metrics}", file=sys.stderr)
    rows = []
    for name, a in res.apps.items():
        rows.append(
            (
                name,
                a.nranks,
                "yes" if a.finished else "no",
                format_seconds(a.max_latency_box.mean),
                format_seconds(a.max_latency_box.maximum),
                format_seconds(a.max_comm_time),
                a.messages,
            )
        )
    print(render_table(
        ["app", "ranks", "done", "mean max-lat", "max max-lat", "max comm time", "msgs"],
        rows,
        title=f"{cfg.workload} on {cfg.network} ({cfg.combo}, scale={cfg.scale})",
    ))
    ls = res.link_summary
    print(
        f"\nlink loads: global={format_bytes(ls['global_total_bytes'])} "
        f"local={format_bytes(ls['local_total_bytes'])} "
        f"global fraction={ls['global_fraction']:.1%}; "
        f"events={res.events}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = latency_sweep(scale=args.scale, seed=args.seed, jobs=args.jobs)
    for app in PANEL_APPS:
        rows = []
        for network in NETWORKS:
            for combo in COMBOS:
                cell = panel_stats(sweep, app, network, combo)
                base = cell.get("baseline")
                row = [network, combo]
                row.append(format_seconds(base.max_latency_box.mean) if base else "-")
                for w in sorted(WORKLOADS):
                    s = cell.get(w)
                    row.append(format_seconds(s.max_latency_box.mean) if s else "-")
                rows.append(row)
        print(render_table(
            ["net", "combo", "baseline"] + sorted(WORKLOADS),
            rows,
            title=f"Mean max message latency: {app}",
        ))
        print()
    return 0


def _cmd_systems(args: argparse.Namespace) -> int:
    rows = []
    for network in NETWORKS:
        t = make_topology(network, args.scale)
        d = t.describe()
        rows.append(
            (
                d["topology"],
                d["radix"],
                d["groups"],
                d["routers_per_group"],
                d["nodes_per_router"],
                d["nodes_per_group"],
                d["global_per_router"],
                d["system_size"],
            )
        )
    print(render_table(
        ["Topology", "Radix", "#Groups", "#Routers/Group", "#Nodes/Router",
         "#Nodes/Group", "#Global/Router", "System Size"],
        rows,
        title=f"System configurations (Table II, scale={args.scale})",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.union.manager import Job, WorkloadManager

    _resolve_policy_defaults(args)
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    skel = translate(source, args.name)
    topo = make_topology(args.network, args.scale)
    storage_nodes = None
    if args.storage_servers > 0:
        storage_nodes = [topo.n_nodes - 1 - i for i in range(args.storage_servers)]
    mgr = WorkloadManager(
        topo,
        routing=args.routing,
        placement=args.placement,
        seed=args.seed,
        storage_nodes=storage_nodes,
    )
    mgr.add_job(Job(args.name, args.ntasks, skeleton=skel))
    try:
        outcome = mgr.run(until=args.horizon)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = outcome.app(args.name).result
    lat = res.max_latencies_per_rank()
    print(render_table(
        ["metric", "value"],
        [
            ("finished", "yes" if res.finished else "no (raise --horizon?)"),
            ("ranks", res.nranks),
            ("messages received", sum(s.msgs_recvd for s in res.rank_stats)),
            ("avg message latency", format_seconds(res.avg_latency())),
            ("max message latency", format_seconds(max(lat) if lat else 0.0)),
            ("max comm time", format_seconds(res.max_comm_time())),
            ("MPI events", str(res.event_counts())),
        ],
        title=f"{args.name} on {args.network} "
              f"({args.placement}-{args.routing}, {args.ntasks} ranks)",
    ))
    if mgr.storage is not None:
        st = mgr.storage.app_stats(0)
        print(f"\nI/O: {st.ops} ops, read {format_bytes(st.bytes_read)}, "
              f"wrote {format_bytes(st.bytes_written)}, "
              f"mean latency {format_seconds(st.mean_latency())} "
              f"(servers at nodes {storage_nodes})")
    return 0 if res.finished else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.conceptual.errors import ConceptualError
    from repro.placement.policies import PlacementError
    from repro.scenario import (
        MetricsEntry,
        ScenarioError,
        load_scenario,
        parse_engine_table,
        render_scenario_report,
        run_scenario,
    )

    if args.horizon is not None and args.horizon <= 0:
        print(f"error: --horizon must be > 0, got {args.horizon:g}", file=sys.stderr)
        return 2
    if (problem := _check_metrics_path(args.metrics)) is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        spec = load_scenario(args.spec)
        if args.horizon is not None:
            spec.horizon = args.horizon
        if (engine := _engine_override(args)) is not None:
            # Flags replace the spec's [engine] table wholesale.
            spec.engine = parse_engine_table(engine)
        if args.metrics or args.metrics_filter:
            # Flags override the spec's [metrics] sink/filter but keep
            # its opt-in instrument switches.
            entry = (spec.metrics or MetricsEntry()).overridden(
                jsonl=args.metrics, filter=args.metrics_filter,
            )
            if entry.jsonl is None and not entry.summary:
                # A filter with nowhere to export is a silent no-op.
                print("error: --metrics-filter needs a sink: pass --metrics "
                      "FILE.jsonl or set [metrics] jsonl/summary in the spec",
                      file=sys.stderr)
                return 2
            spec.metrics = entry
        # run_scenario may raise too: a missing or untranslatable job
        # source file, a t=0 job that does not fit the topology, or an
        # unwritable [metrics] jsonl path (OSError) -- all after-the-
        # fact errors the user should see cleanly.
        result = run_scenario(spec)
    except (ScenarioError, PlacementError, ConceptualError, RegistryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_scenario_report(result))
    if args.metrics:
        print(f"wrote {args.metrics}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_json_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    apps = [j for j in result.jobs if not j.background]
    return 0 if all(j.finished for j in apps) else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError, render_batch_summary, run_batch

    if args.metrics_filter and not args.metrics:
        # Without --metrics the filter only reaches specs that declare
        # their own [metrics] sink; surface the likely mistake but keep
        # going for the specs it can affect.
        print("warning: --metrics-filter without --metrics DIR only affects "
              "specs with their own [metrics] jsonl/summary sink",
              file=sys.stderr)
    try:
        batch = run_batch(
            args.directory,
            workers=args.jobs,
            metrics_dir=args.metrics,
            metrics_filter=list(args.metrics_filter) if args.metrics_filter else None,
            engine=_engine_override(args),
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_batch_summary(batch))
    if args.json:
        batch.write_json(args.json)
        print(f"wrote {args.json}")
    return 0 if not batch.failures else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import fuzz_seeds, render_fuzz_report
    from repro.registry import RegistryError, generator_registry
    from repro.scenario import ScenarioError

    try:
        generator_registry.get(args.generator, path="generator")
        report = fuzz_seeds(
            args.generator,
            seeds=args.seeds,
            base_seed=args.base_seed,
            jobs=args.jobs,
            parity_stride=args.parity_stride,
            repro_dir=args.repro_dir,
            shrink=not args.no_shrink,
        )
    except (RegistryError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_fuzz_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_env(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.conceptual.errors import ConceptualError
    from repro.placement.policies import PlacementError
    from repro.registry import policy_registry
    from repro.scenario import ScenarioError, load_scenario

    if args.spec is None:
        # Roster mode: the policy registry plus the action alphabet.
        from repro.env import SimulationEnv

        rows = []
        for spec in policy_registry:
            rows.append((
                spec.name,
                ", ".join(spec.hooks) or "-",
                ", ".join(p.name for p in spec.params) or "-",
                spec.summary,
            ))
        print(render_table(
            ["name", "hooks", "params", "summary"],
            rows,
            title="Control-policy registry",
        ))
        print("\nDeclared parameters (set them in a scenario [env] table "
              "or via --policy):")
        for spec in policy_registry:
            if not spec.params:
                continue
            print(f"\n  {spec.name}")
            for p in spec.params:
                print(f"    {p.describe()}")
        aliases = policy_registry.aliases()
        if aliases:
            pairs = ", ".join(f"{a} -> {n}" for a, n in aliases.items())
            print(f"\nAliases: {pairs}.")
        print(f"Episode actions: {', '.join(SimulationEnv.ACTIONS)}.")
        print("Observation/action schema and episode runner: docs/env.md.")
        return 0

    from repro.env import run_episode

    if args.window is not None and args.window <= 0:
        print(f"error: --window must be > 0, got {args.window:g}",
              file=sys.stderr)
        return 2
    steps: list[tuple] = []

    def on_step(i, obs, reward, info):
        steps.append((
            i + 1,
            format_seconds(obs.clock),
            info["action"],
            info["policy"],
            f"{obs.jobs_started}/{obs.jobs_total}",
            obs.jobs_finished,
            obs.free_nodes,
            f"{reward:+.3e}",
        ))

    try:
        spec = load_scenario(args.spec)
        ep = run_episode(
            spec,
            policy=args.policy,
            seed=args.seed,
            window=args.window,
            actions=list(args.action) if args.action else None,
            on_step=on_step,
        )
    except (ScenarioError, PlacementError, ConceptualError, RegistryError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(
        ["step", "t", "action", "policy", "started", "done", "free", "reward"],
        steps,
        title=(f"episode: {ep.scenario!r}, policy {ep.policy['type']!r}, "
               f"seed {ep.seed}, window {format_seconds(ep.window)}"),
    ))
    print(
        f"return {ep.total_reward:+.3e} ({ep.reward_kind}) over {ep.steps} "
        f"steps; end time {format_seconds(ep.end_time)}, {ep.events} events"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(ep.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not math.isfinite(ep.total_reward):
        # The reward contract: every episode return is finite.
        print(f"error: non-finite episode return {ep.total_reward!r}",
              file=sys.stderr)
        return 3
    apps = [j for j in ep.result["jobs"] if not j["background"]]
    return 0 if all(j["finished"] or j["skip_reason"] for j in apps) else 1


def _cmd_topologies(args: argparse.Namespace) -> int:
    from repro.registry import available_placements

    rows = []
    for spec in topology_registry:
        t = spec.build(spec.presets[args.scale])
        d = t.describe()
        rows.append((
            spec.name, d["topology"], d["system_size"], t.n_routers,
            t.radix(), t.diameter(),
            "/".join(spec.routings), "/".join(available_placements(spec.name)),
        ))
    print(render_table(
        ["name", "topology", "nodes", "routers", "radix", "diameter",
         "routings", "placements"],
        rows,
        title=f"Fabric model registry ({args.scale} presets)",
    ))
    print("\nDeclared parameters (override any of them in a scenario "
          "[topology] table or via repro.registry.build_topology):")
    for spec in topology_registry:
        print(f"\n  {spec.name} -- {spec.summary}")
        for p in spec.params:
            preset = spec.presets[args.scale].get(p.name)
            print(f"    {p.name}: {p.kind} = {preset!r}  ({p.doc})")
    aliases = topology_registry.aliases()
    if aliases:
        pairs = ", ".join(f"{a} -> {n}" for a, n in aliases.items())
        print(f"\nAliases: {pairs}.")
    print("Dragonfly scales: use 'union-sim systems --scale paper' for Table II.")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    rows = [
        (spec.name, *(spec.axes[a] for a in ENGINE_AXES),
         ", ".join(p.name for p in spec.params) or "-", spec.summary)
        for spec in engine_registry
    ]
    print(render_table(
        ["name", *ENGINE_AXES, "params", "summary"],
        rows,
        title="Execution-engine registry",
    ))
    print("\nDeclared parameters (set them in a scenario [engine] table "
          "or via --engine/--partitions):")
    for spec in engine_registry:
        if not spec.params:
            continue
        print(f"\n  {spec.name}")
        for p in spec.params:
            print(f"    {p.describe()}")
    aliases = engine_registry.aliases()
    if aliases:
        pairs = ", ".join(f"{a} -> {n}" for a, n in aliases.items())
        print(f"\nAliases: {pairs}.")
    print("Engine model and lookahead contract: docs/engines.md.")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SimulationServer
    from repro.service.http import ServiceHTTPServer

    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        print(f"error: --checkpoint-interval must be > 0, got "
              f"{args.checkpoint_interval:g}", file=sys.stderr)
        return 2
    try:
        server = SimulationServer(
            args.state,
            workers=args.workers,
            cache_dir=args.cache,
            checkpoint_interval=args.checkpoint_interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with server:
        try:
            http = ServiceHTTPServer(server, host=args.host, port=args.port)
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"union-sim service on {http.url}", file=sys.stderr)
        print(f"  state {server.state_dir}  cache {server.cache.root}  "
              f"workers {server.n_workers}", file=sys.stderr)
        try:
            http.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down (queued jobs stay journaled and are "
                  "recovered on the next serve)", file=sys.stderr)
        finally:
            http.stop()
    return 0


_TERMINAL_STATES = ("done", "failed", "cancelled")


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import ScenarioError, load_scenario
    from repro.service import ServiceError
    from repro.service.client import ServiceClient

    try:
        spec = load_scenario(args.spec)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.server)
    try:
        record = client.submit(spec.to_dict())
        if (args.wait or args.json) and record["state"] not in _TERMINAL_STATES:
            record = client.wait(record["job_id"], timeout=args.timeout)
        if args.json and record["state"] == "done":
            with open(args.json, "w") as fh:
                json.dump(client.result(record["job_id"]), fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = (f"job {record['job_id']} ({record['scenario']}): "
            f"{record['state']}")
    if record.get("cached"):
        line += " (cache hit)"
    if record.get("error"):
        line += f" -- {record['error']}"
    print(line)
    return 0 if record["state"] not in ("failed", "cancelled") else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server)
    try:
        if args.job_id is None:
            if args.cancel or args.result:
                print("error: --cancel/--result need a JOB id",
                      file=sys.stderr)
                return 2
            records = client.jobs()
            stats = client.stats()
            rows = [(r["job_id"], r["scenario"], r["state"],
                     "yes" if r.get("cached") else "no",
                     r.get("attempts", 0), r.get("error") or "-")
                    for r in records]
            print(render_table(
                ["job", "scenario", "state", "cached", "attempts", "note"],
                rows,
                title=f"jobs on {client.url}",
            ))
            cache = stats["cache"]
            line = (f"cache: {cache['entries']} entries, "
                    f"{cache['hits']} hits / {cache['misses']} misses")
            if (workers := stats.get("workers")) is not None:
                line += (f"; workers: {workers['alive']}/"
                         f"{workers['configured']} alive, "
                         f"{workers['busy']} busy")
            print(line)
            return 0
        if args.result:
            print(json.dumps(client.result(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        record = (client.cancel(args.job_id) if args.cancel
                  else client.status(args.job_id))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _add_metrics_flags(parser: argparse.ArgumentParser,
                       metrics_help: str | None = None,
                       metavar: str = "FILE.jsonl") -> None:
    """The shared telemetry export flags (run/scenario/batch)."""
    parser.add_argument(
        "--metrics", default=None, metavar=metavar,
        help=metrics_help or "write telemetry metric rows as JSONL "
             "(see docs/telemetry.md for the row schema)")
    parser.add_argument(
        "--metrics-filter", action="append", default=None, metavar="GLOB",
        help="only export metric keys matching this glob "
             "(repeatable, e.g. 'mpi.job.*' or 'net.link.class.*')")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="union-sim", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("translate", help="compile coNCePTuaL source to a Union skeleton")
    t.add_argument("file", help="source file ('-' for stdin)")
    t.add_argument("--name", default="app")
    t.set_defaults(fn=_cmd_translate)

    v = sub.add_parser("validate", help="application-vs-skeleton validation")
    v.add_argument("file", help="source file ('-' for stdin)")
    v.add_argument("--name", default="app")
    v.add_argument("--ntasks", type=int, default=16)
    v.set_defaults(fn=_cmd_validate)

    networks = _network_choices()
    routings = list(all_routing_names())
    placements = list(placement_registry.names())

    r = sub.add_parser("run", help="simulate one configuration")
    r.add_argument("--network", choices=networks, default="1d",
                   help="registry fabric model ('union-sim topologies' lists them)")
    r.add_argument("--workload", default="workload3")
    r.add_argument("--placement", choices=placements, default=None,
                   help="placement policy (default: the network's registry default)")
    r.add_argument("--routing", choices=routings, default=None,
                   help="routing policy (default: the network's registry default)")
    r.add_argument("--scale", choices=["mini", "paper"], default="mini")
    r.add_argument("--seed", type=int, default=1)
    _add_engine_flags(r)
    _add_metrics_flags(r)
    _add_profile_flag(r)
    r.set_defaults(fn=_cmd_run)

    s = sub.add_parser("sweep", help="full placement x routing sweep")
    s.add_argument("--scale", choices=["mini"], default="mini")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep cells (1 = in-process)")
    s.set_defaults(fn=_cmd_sweep)

    y = sub.add_parser("systems", help="print Table II configurations")
    y.add_argument("--scale", choices=["mini", "paper"], default="paper")
    y.set_defaults(fn=_cmd_systems)

    m = sub.add_parser("simulate", help="translate a coNCePTuaL file and simulate it in situ")
    m.add_argument("file", help="source file ('-' for stdin)")
    m.add_argument("--name", default="app")
    m.add_argument("--ntasks", type=int, default=16)
    m.add_argument("--network", choices=networks, default="1d",
                   help="registry fabric model ('union-sim topologies' lists them)")
    m.add_argument("--placement", choices=placements, default=None,
                   help="placement policy (default: the network's registry default)")
    m.add_argument("--routing", choices=routings, default=None,
                   help="routing policy (default: the network's registry default)")
    m.add_argument("--scale", choices=["mini", "paper"], default="mini")
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--horizon", type=float, default=10.0,
                   help="simulation horizon in seconds")
    m.add_argument("--storage-servers", type=int, default=0,
                   help="attach N storage servers (enables DSL I/O verbs)")
    m.set_defaults(fn=_cmd_simulate)

    c = sub.add_parser("scenario", help="run a declarative TOML/JSON scenario spec")
    c.add_argument("spec", help="path to a .toml or .json scenario file")
    c.add_argument("--horizon", type=float, default=None,
                   help="override the spec's simulation horizon (seconds)")
    c.add_argument("--json", default=None, metavar="FILE",
                   help="also write the full per-job metrics as JSON")
    _add_engine_flags(c)
    _add_metrics_flags(c)
    _add_profile_flag(c)
    c.set_defaults(fn=_cmd_scenario)

    b = sub.add_parser("batch", help="run every scenario spec in a directory")
    b.add_argument("directory", help="directory of .toml/.json scenario files")
    b.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = sequential)")
    b.add_argument("--json", default=None, metavar="FILE",
                   help="also write every scenario's metrics as JSON")
    _add_engine_flags(b)
    _add_metrics_flags(b, metrics_help=(
        "write each scenario's telemetry rows to "
        "DIR/<spec>.metrics.jsonl"), metavar="DIR")
    b.set_defaults(fn=_cmd_batch)

    n = sub.add_parser(
        "env", help="roll a scenario as a gym-style episode (no spec: "
                    "print the control-policy roster)")
    n.add_argument("spec", nargs="?", default=None,
                   help="path to a .toml or .json scenario file "
                        "(omit to list the registered control policies)")
    n.add_argument("--policy", default=None,
                   help="control policy driving the session's decision hooks "
                        "(default: the spec's [env] table, else scripted)")
    n.add_argument("--seed", type=int, default=None,
                   help="override the spec's seed for this episode")
    n.add_argument("--window", type=float, default=None, metavar="SECONDS",
                   help="simulated seconds per env step "
                        "(default: the spec's [env] table, else horizon/8)")
    n.add_argument("--action", action="append", default=None,
                   metavar="LABEL",
                   help="script the next step's action (repeatable: keep, "
                        "scripted, load-aware, defer); later steps use 'keep'")
    n.add_argument("--json", default=None, metavar="FILE",
                   help="also write the episode record and result as JSON")
    n.set_defaults(fn=_cmd_env)

    f = sub.add_parser(
        "fuzz",
        help="property-check generated scenarios over a seed sweep",
        description="Generate scenarios from a registered generator over "
                    "a contiguous seed range, run each one, and check the "
                    "invariant roster (conservation, no stuck jobs, "
                    "determinism, engine parity, monotone clocks); failing "
                    "cases are shrunk to a minimal TOML repro.")
    f.add_argument("--seeds", type=int, default=50, metavar="N",
                   help="seeds to sweep (default 50)")
    f.add_argument("--base-seed", type=int, default=0, metavar="S",
                   help="first seed of the sweep (default 0)")
    f.add_argument("--jobs", type=int, default=1, metavar="M",
                   help="worker processes for the sweep (default 1)")
    f.add_argument("--generator", default="random-mix",
                   help="scenario generator to fuzz (default random-mix; "
                        "see docs/scenarios.md for the roster)")
    f.add_argument("--parity-stride", type=int, default=5, metavar="K",
                   help="run the engine-parity invariant on every K-th "
                        "case (0 disables it; default 5)")
    f.add_argument("--repro-dir", default="fuzz-repros", metavar="DIR",
                   help="directory for shrunken failing-case TOML repros")
    f.add_argument("--no-shrink", action="store_true",
                   help="report failures without shrinking them")
    f.add_argument("--json", default=None, metavar="FILE",
                   help="also write the sweep report as JSON")
    f.set_defaults(fn=_cmd_fuzz)

    from repro.service.client import DEFAULT_SERVER

    sv = sub.add_parser(
        "serve",
        help="run the persistent simulation service",
        description="Bind the HTTP job API in front of a persistent worker "
                    "pool with a durable job journal, a content-addressed "
                    "result cache and checkpoint/resume crash recovery "
                    "(docs/service.md).")
    sv.add_argument("--state", default="service-state", metavar="DIR",
                    help="service state directory: job journal, checkpoint "
                         "cursors and (by default) the result cache")
    sv.add_argument("--workers", type=int, default=2, metavar="N",
                    help="persistent worker processes (default 2)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="address to bind (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=7321,
                    help="port to bind (default 7321)")
    sv.add_argument("--cache", default=None, metavar="DIR",
                    help="result-cache directory (default: STATE/cache; "
                         "share one across services to share results)")
    sv.add_argument("--checkpoint-interval", type=float, default=None,
                    metavar="SECONDS",
                    help="write a checkpoint cursor every SECONDS of "
                         "simulated time (default: only at the horizon)")
    sv.set_defaults(fn=_cmd_serve)

    u = sub.add_parser(
        "submit",
        help="send one scenario spec to a running service",
        description="Validate a TOML/JSON scenario locally, submit it to a "
                    "`union-sim serve` endpoint, and print its job record.")
    u.add_argument("spec", help="path to a .toml or .json scenario file")
    u.add_argument("--server", default=DEFAULT_SERVER, metavar="URL",
                   help=f"service endpoint (default {DEFAULT_SERVER})")
    u.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    u.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS",
                   help="give up waiting after SECONDS (default 120)")
    u.add_argument("--json", default=None, metavar="FILE",
                   help="write the finished job's result document as JSON "
                        "(implies --wait)")
    u.set_defaults(fn=_cmd_submit)

    j = sub.add_parser(
        "jobs",
        help="list/inspect/cancel jobs on a running service",
        description="With no JOB id: one table of every journaled job plus "
                    "cache/worker counters.  With a JOB id: that job's "
                    "record as JSON (--result fetches its result document, "
                    "--cancel cancels it).")
    j.add_argument("job_id", nargs="?", default=None, metavar="JOB",
                   help="job id (e.g. job-000001); omit to list every job")
    j.add_argument("--server", default=DEFAULT_SERVER, metavar="URL",
                   help=f"service endpoint (default {DEFAULT_SERVER})")
    j.add_argument("--cancel", action="store_true",
                   help="cancel the job (queued: dropped at pick-up; "
                        "running: its worker is killed)")
    j.add_argument("--result", action="store_true",
                   help="print the finished job's result document as JSON")
    j.set_defaults(fn=_cmd_jobs)

    o = sub.add_parser("topologies", help="print the fabric-model registry")
    o.add_argument("--scale", choices=["mini", "paper"], default="mini",
                   help="which preset to instantiate for the size columns")
    o.set_defaults(fn=_cmd_topologies)

    e = sub.add_parser("engines", help="print the execution-engine registry")
    e.set_defaults(fn=_cmd_engines)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", None):
        import cProfile

        prof = cProfile.Profile()
        try:
            return prof.runcall(args.fn, args)
        finally:
            prof.dump_stats(args.profile)
            print(f"wrote profile to {args.profile}", file=sys.stderr)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
