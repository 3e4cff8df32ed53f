"""Command-line interface: regenerate the paper's experiments.

::

    python -m repro fig1                 # bandwidth mismatch table
    python -m repro fig6 --app grep --devices 1 2 4
    python -m repro fig7
    python -m repro fig8 --apps grep gawk
    python -m repro table1
    python -m repro validate --workers 4 # shard the scorecard across cores
    python -m repro quickstart           # the quickstart scenario
    python -m repro config presets       # scenario registry + digests

Every command prints the same table its benchmark counterpart asserts on.

The nine matrix verbs (``fig1``/``fig6``/``fig7``/``fig8``/``validate``/
``traffic``/``drill``/``objstore``/``backends``) are declared in one table,
:data:`repro.families.FAMILIES`, and run down one shared path.  They accept
``--workers N`` to shard their independent seeded cells across a process
pool and merge in canonical order — stdout is byte-identical at any worker
count (the run summary goes to stderr) — and keep a content-addressed
result cache (``--no-cache`` / ``--cache-dir`` to control it).

All of them but ``fig1``, plus ``chaos`` and ``smart``, take ``--preset
NAME`` and repeatable ``--set path=value`` scenario overrides; each run
prints a ``# scenario <name> digest=<sha256>`` header that ``config show``
can expand back into the full configuration.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from repro.analysis.experiments import format_series_table
from repro.baselines import table1_rows
from repro.config.cli import (
    add_config_subparser,
    add_scenario_args,
    scenario_from_args,
    scenario_header,
)
from repro.families import FAMILIES, Family
from repro.parallel import ResultCache, payload_digest, run_jobs

__all__ = ["main"]


def _scenario_payload(args: argparse.Namespace):
    """``(config, to_dict(config))`` for a verb's scenario flags, or Nones.

    The header is printed here — in the parent process, before any
    tables — so stdout stays byte-identical at every ``--workers`` count.
    """
    config = scenario_from_args(args)
    if config is None:
        return None, None
    from repro.config import to_dict

    print(scenario_header(config))
    return config, to_dict(config)


def _cmd_family(family: Family, args: argparse.Namespace) -> None:
    """Run one experiment family: scenario header, cells, rendered tables,
    scorecard digest, then exit 1 on any gate failure."""
    _, payload = _scenario_payload(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_jobs(
        family.cells(args, payload), workers=args.workers, cache=cache
    )
    print(report.summary(), file=sys.stderr)
    values = report.values()
    lines, failures = family.render(args, values)
    for line in lines:
        print(line)
    if family.golden:
        print(f"scorecard digest={payload_digest(values)}")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        raise SystemExit(1)


def _add_family(sub, family: Family) -> None:
    p = sub.add_parser(family.verb, help=family.help)
    for names, options in family.flags:
        p.add_argument(*names, **options)
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width; 1 (default) runs in-process serially",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="always recompute; do not read or write the result cache",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or "
             "<repo>/.repro-cache)",
    )
    if family.preset is not None:
        add_scenario_args(p, default_preset=family.preset)
    p.set_defaults(func=functools.partial(_cmd_family, family))


def _cmd_table1(_args: argparse.Namespace) -> None:
    print(format_series_table(
        "Table I — in-storage computation systems",
        ["system", "prototype", "dyn. loading", "library", "OS flexibility"],
        table1_rows(),
    ))


def _cmd_smart(args: argparse.Namespace) -> None:
    """Run a small workload, then dump the drive's SMART/health log.

    Scenario-driven so the device under inspection can be any registered
    backend (``--set device.backend=zoned``); the health attributes come
    from the backend-agnostic ``health_stats()`` surface.
    """
    from dataclasses import replace

    from repro.config import build_node
    from repro.workloads import BookCorpus, CorpusSpec

    config, _ = _scenario_payload(args)
    config = replace(config, fleet=replace(config.fleet, devices_per_node=1))
    node = build_node(config)
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=args.files, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))

    def workload():
        for book in books:
            yield from node.client.run("compstor0", f"gzip {book.name}")

    sim.run(sim.process(workload()))
    smart = node.compstors[0].controller.smart_log()
    rows = []
    for key, value in smart.items():
        if key == "latency":
            for opcode, stats in value.items():
                rows.append([f"latency.{opcode}",
                             f"n={stats['count']} mean={stats['mean'] * 1e6:.1f}us"])
        else:
            rows.append([key, value])
    print(format_series_table("SMART / health log after workload", ["attribute", "value"], rows))


def _cmd_fleet(args: argparse.Namespace) -> None:
    """Fleet weak-scaling sweep (nodes x devices, one minion per book)."""
    from repro.analysis.experiments import throughput_mb_s
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
    from repro.proto import Command
    from repro.workloads import BookCorpus, CorpusSpec

    rows = []
    for nodes in args.nodes:
        books = BookCorpus(
            CorpusSpec(files=args.books_per_node * nodes, mean_file_bytes=32 * 1024)
        ).generate()
        fleet = build_fleet(ScenarioConfig(
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(nodes=nodes, devices_per_node=args.devices),
        ))
        fleet.sim.run(fleet.sim.process(fleet.stage_corpus(books)))

        def job():
            return (
                yield from fleet.run_job(
                    books, lambda b: Command(command_line=f"grep xylophone {b.name}")
                )
            )

        responses, wall = fleet.sim.run(fleet.sim.process(job()))
        total = sum(b.plain_size for b in books)
        rows.append([nodes, len(responses), throughput_mb_s(total, wall)])
    print(format_series_table(
        "fleet weak scaling (grep)",
        ["nodes", "concurrent minions", "aggregate MB/s"],
        rows,
    ))


def _cmd_chaos(args: argparse.Namespace) -> None:
    """Run a fleet job under a fault plan; print the recovery report.

    Device targets are fleet-wide ring indices (``--kill 1@0.2`` crashes
    the second device 0.2 ms after staging completes); ``--random N``
    derives N faults deterministically from ``--seed``.  Without
    ``--preset``/``--set``, ``--nodes/--devices/--books/--replicas/--seed``
    describe the scenario.
    """
    from repro.config import (
        FlashConfig,
        FleetConfig,
        ScenarioConfig,
        build_corpus,
        build_fleet,
    )
    from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
    from repro.proto import Command
    from repro.workloads import CorpusSpec

    config, _ = _scenario_payload(args)
    if config is None:
        config = ScenarioConfig(
            seed=args.seed,
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(
                nodes=args.nodes, devices_per_node=args.devices,
                replicas=args.replicas,
            ),
            corpus=CorpusSpec(files=args.books, mean_file_bytes=32 * 1024, seed=args.seed),
            retry=RetryPolicy(),
            breaker=BreakerConfig(),
        )
    fleet = build_fleet(config)
    books = build_corpus(config)
    seed = config.seed
    ring = fleet.device_ring()
    fleet.sim.run(
        fleet.sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas))
    )
    start = fleet.sim.now

    def targets(specs):
        for raw in specs:
            index, _, when = raw.partition("@")
            node, device = ring[int(index) % len(ring)]
            yield node, device, start + float(when or "0") * 1e-3

    ms = lambda value: None if value is None else value * 1e-3
    if config.faults.any:
        # the scenario's declarative fault plan; CLI flags stack on top
        plan = FaultPlan.from_config(config.faults, ring, base_time=start)
    else:
        plan = FaultPlan(seed=seed)
    for node, device, at in targets(args.kill):
        plan.kill_device(node, device, at, recover_after=ms(args.recover_after))
    for node, device, at in targets(args.agent_crash):
        plan.crash_agent(node, device, at, restart_after=ms(args.restart_after))
    for node, device, at in targets(args.limp):
        plan.limp(node, device, at, factor=args.limp_factor, duration=ms(args.limp_duration))
    for node, device, at in targets(args.transient):
        plan.transient_window(
            node, device, at,
            duration=ms(args.transient_duration), fraction=args.transient_fraction,
        )
    if args.random:
        for event in FaultPlan.random(
            seed, ring, horizon=start + 10e-3, faults=args.random
        ).events():
            plan.add(event)
    print(format_series_table(
        f"fault plan (seed={seed}, fingerprint={plan.fingerprint()})",
        ["t (ms)", "kind", "target", "detail"],
        plan.describe_rows() or [["-", "none", "-", "fault-free drill"]],
    ))
    FaultInjector.for_fleet(fleet, plan).start()

    def job():
        report = yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        )
        return report

    report = fleet.sim.run(fleet.sim.process(job()))
    print(format_series_table(
        "degraded-mode job report", ["attribute", "value"], report.rows()
    ))

    def poll():
        summary = yield from fleet.health()
        return summary

    health = fleet.sim.run(fleet.sim.process(poll()))
    print(format_series_table("fleet health", ["attribute", "value"], health.rows()))
    if report.lost:
        print(f"lost minions: {', '.join(report.lost)}")
        raise SystemExit(1)


def _cmd_metrics(args: argparse.Namespace) -> None:
    """Run a workload with full observability on; dump every export surface.

    Emits the Prometheus text exposition, the JSON-lines samples, and the
    reconstructed span tree of the first minion — the six Table III
    lifecycle steps in causal order.
    """
    from repro.cluster.scheduler import LeastLoadedBalancer, MinionDispatcher
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
    from repro.obs import (
        MetricsRegistry,
        adopt_records,
        build_span_trees,
        format_span_tree,
        to_json_lines,
        to_prometheus,
    )
    from repro.proto import Command
    from repro.sim import Tracer
    from repro.workloads import BookCorpus, CorpusSpec

    tracer = Tracer()
    metrics = MetricsRegistry()
    node = build_node(
        ScenarioConfig(
            flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
            fleet=FleetConfig(devices_per_node=args.devices),
        ),
        tracer=tracer,
        metrics=metrics,
    )
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=args.files, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))

    if args.workload in ("grep", "gawk"):
        commands = [Command(command_line=f"{args.workload} xylophone {b.name}") for b in books]
    else:
        commands = [Command(command_line=f"{args.workload} {b.name}") for b in books]
    dispatcher = MinionDispatcher(node.client, LeastLoadedBalancer(), metrics=metrics)
    sim.run(sim.process(dispatcher.submit_all(commands)))

    print("# == Prometheus exposition ==")
    print(to_prometheus(metrics))
    print("# == JSON lines ==")
    print(to_json_lines(metrics))

    roots = build_span_trees(tracer)
    root = next(
        (roots[t] for t in sorted(roots) if roots[t].name == "minion.lifetime"), None
    )
    if root is None:
        print("# no minion span tree captured")
        return
    # flash traffic (Table III steps 3-4) has no span plumbing of its own;
    # fold the device's records into the tree by time window
    sent = next((e for e in root.events if e[1] == "client.minion.sent"), None)
    device = sent[2].get("device", "") if sent is not None else ""
    adopt_records(root, tracer, kinds=("flash.read",), component_prefix=f"{device}.flash")
    print("# == span tree: first minion (Table III lifecycle) ==")
    print(format_span_tree(root))


def _cmd_quickstart(_args: argparse.Namespace) -> None:
    from repro.config import build_node, preset

    node = build_node(preset("smoke"))
    sim = node.sim
    ssd = node.compstors[0]
    sim.run(sim.process(ssd.fs.write_file("hello.txt", b"fox\n" * 100)))

    def session():
        response = yield from node.client.run("compstor0", "grep fox hello.txt")
        print(f"in-situ grep matched {response.stdout.decode()} lines "
              f"in {response.execution_seconds * 1e3:.2f} ms on {response.device}")

    sim.run(sim.process(session()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CompStor reproduction: regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for family in FAMILIES.values():
        _add_family(sub, family)

    p = sub.add_parser("table1", help="related-work capability matrix (Table I)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("smart", help="device SMART/health log after a workload")
    p.add_argument("--files", type=int, default=4)
    add_scenario_args(p, default_preset="smoke")
    p.set_defaults(func=_cmd_smart)

    p = sub.add_parser("fleet", help="fleet weak-scaling sweep")
    p.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--devices", type=int, default=2)
    p.add_argument("--books-per-node", type=int, default=8)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("chaos", help="fleet job under injected faults (recovery drill)")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--devices", type=int, default=2, help="CompStors per node")
    p.add_argument("--books", type=int, default=8)
    p.add_argument("--replicas", type=int, default=2, help="copies of each book")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kill", action="append", default=[], metavar="IDX@MS",
                   help="crash device at ring index IDX, MS ms after staging (repeatable)")
    p.add_argument("--agent-crash", action="append", default=[], metavar="IDX@MS",
                   help="crash the ISPS agent daemon (repeatable)")
    p.add_argument("--limp", action="append", default=[], metavar="IDX@MS",
                   help="slow the device front end (repeatable)")
    p.add_argument("--transient", action="append", default=[], metavar="IDX@MS",
                   help="open a transient NVMe failure window (repeatable)")
    p.add_argument("--recover-after", type=float, default=None,
                   help="killed-device recovery delay in ms (default: permanent)")
    p.add_argument("--restart-after", type=float, default=2.0,
                   help="agent supervised-restart delay in ms")
    p.add_argument("--limp-factor", type=float, default=4.0)
    p.add_argument("--limp-duration", type=float, default=None,
                   help="limp window in ms (default: permanent)")
    p.add_argument("--transient-fraction", type=float, default=0.2)
    p.add_argument("--transient-duration", type=float, default=2.0, help="ms")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="add N random faults derived deterministically from --seed")
    add_scenario_args(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("metrics", help="observability dump: metrics + span tree")
    p.add_argument("--workload", default="grep",
                   choices=["grep", "gawk", "gzip", "bzip2"])
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--files", type=int, default=4)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("quickstart", help="minimal end-to-end in-situ grep")
    p.set_defaults(func=_cmd_quickstart)

    add_config_subparser(sub)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
