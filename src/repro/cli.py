"""Command-line interface: regenerate the paper's experiments.

::

    python -m repro fig1                 # bandwidth mismatch table
    python -m repro fig6 --app grep --devices 1 2 4
    python -m repro fig7
    python -m repro fig8 --apps grep gawk
    python -m repro table1
    python -m repro validate --workers 4 # shard the scorecard across cores
    python -m repro chaos --kill 1@0.2   # crash a device mid-job, recover
    python -m repro smart                # a drive's SMART/health log
    python -m repro quickstart           # the quickstart scenario
    python -m repro config presets       # scenario registry + digests

Every command prints the same table its benchmark counterpart asserts on.

The eleven scenario verbs (``fig1``/``fig6``/``fig7``/``fig8``/``traffic``/
``drill``/``objstore``/``backends``/``validate``/``chaos``/``smart``) are
declared in one table, :data:`repro.families.FAMILIES`, and run down one
shared path.  They accept ``--workers N`` to shard their independent
seeded cells across a process pool and merge in canonical order — stdout
is byte-identical at any worker count (the run summary goes to stderr) —
and keep a content-addressed result cache (``--no-cache`` /
``--cache-dir`` to control it).

All of them but ``fig1`` take ``--preset NAME`` and repeatable ``--set
path=value`` scenario overrides; each run prints a ``# scenario <name>
digest=<sha256>`` header that ``config show`` can expand back into the
full configuration.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from repro.analysis.experiments import format_series_table
from repro.baselines import table1_rows
from repro.config import to_dict
from repro.config.cli import (
    add_config_subparser,
    add_scenario_args,
    scenario_from_args,
    scenario_header,
)
from repro.families import FAMILIES, Family
from repro.parallel import ResultCache, payload_digest, run_jobs

__all__ = ["main"]


def _cmd_family(
    family: Family, parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Run one experiment family: scenario header, cells, rendered tables,
    scorecard digest, then exit 1 on any gate failure.

    The header is printed here — in the parent process, before any
    tables — so stdout stays byte-identical at every ``--workers`` count.
    It names the scenario after the family's own flags are folded in.
    """
    config = scenario_from_args(args)
    if family.configure is not None:
        try:
            config = family.configure(args, config)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    payload = None
    if config is not None:
        print(scenario_header(config))
        payload = to_dict(config)
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
    p = sub.add_parser(family.verb, help=family.help, description=family.help)
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
    p.set_defaults(func=functools.partial(_cmd_family, family, p))


def _cmd_table1(_args: argparse.Namespace) -> None:
    print(format_series_table(
        "Table I — in-storage computation systems",
        ["system", "prototype", "dyn. loading", "library", "OS flexibility"],
        table1_rows(),
    ))


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
