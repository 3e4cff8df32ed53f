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

The experiment verbs (``fig6``/``fig7``/``fig8``/``validate``/``chaos``)
take ``--preset NAME`` and repeatable ``--set path=value`` scenario
overrides; each run prints a ``# scenario <name> digest=<sha256>`` header
that ``config show`` can expand back into the full configuration.

The matrix-shaped verbs (``validate``, ``bench``, and the figure verbs)
accept ``--workers N`` to shard their independent seeded cells across a
process pool and merge in canonical order — stdout is byte-identical at
any worker count (the run summary goes to stderr).  They also keep a
content-addressed result cache (``--no-cache`` / ``--cache-dir`` to
control it); ``bench`` never caches, because its wall clock *is* the
measurement.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.experiments import format_series_table
from repro.analysis.figures import FIG8_APPS, Fig1Row, Fig8Row, fig6_linearity
from repro.analysis.perf import SCENARIOS
from repro.baselines import table1_rows
from repro.config import DEVICE_BACKENDS
from repro.config.cli import (
    add_config_subparser,
    add_scenario_args,
    scenario_from_args,
    scenario_header,
)

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


def _add_parallel_args(
    parser: argparse.ArgumentParser, cached: bool = True
) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width; 1 (default) runs in-process serially",
    )
    if cached:
        parser.add_argument(
            "--no-cache", action="store_true",
            help="always recompute; do not read or write the result cache",
        )
        parser.add_argument(
            "--cache-dir", default=None,
            help="result cache root (default: $REPRO_CACHE_DIR or "
                 "<repo>/.repro-cache)",
        )
    else:
        parser.add_argument(
            "--no-cache", action="store_true",
            help="accepted for symmetry; this verb never caches (its wall "
                 "clock is the measurement)",
        )


def _run_matrix(specs, args: argparse.Namespace, cached: bool = True):
    """Run work items through the parallel runner; summary to stderr only,
    so stdout stays byte-identical at every worker count."""
    from repro.obs import MetricsRegistry
    from repro.parallel import ResultCache, run_jobs

    cache = None
    if cached and not getattr(args, "no_cache", False):
        cache = ResultCache(getattr(args, "cache_dir", None))
    report = run_jobs(
        specs,
        workers=getattr(args, "workers", 1),
        cache=cache,
        metrics=MetricsRegistry(),
    )
    print(report.summary(), file=sys.stderr)
    return report


def _cmd_fig1(args: argparse.Namespace) -> None:
    from repro.parallel import fig1_jobs

    report = _run_matrix(fig1_jobs(tuple(args.devices)), args)
    rows = [Fig1Row(**value) for value in report.values()]
    print(format_series_table(
        "Fig. 1 — media vs host bandwidth (GB/s)",
        ["SSDs", "aggregate media", "per-SSD link", "host ingest", "mismatch x"],
        [[r.ssd_count, r.media_bandwidth_bps / 1e9, r.endpoint_link_bps / 1e9,
          r.host_ingest_bps / 1e9, r.mismatch] for r in rows],
    ))


def _cmd_fig6(args: argparse.Namespace) -> None:
    from repro.parallel import fig6_jobs

    _, payload = _scenario_payload(args)
    report = _run_matrix(
        fig6_jobs(args.app, tuple(args.devices), scenario=payload), args
    )
    results = [tuple(value) for value in report.values()]
    slope, _, r2 = fig6_linearity(results)
    print(format_series_table(
        f"Fig. 6 — {args.app} throughput vs device count",
        ["devices", "MB/s"],
        [[n, tp] for n, tp in results],
    ))
    print(f"fit: slope={slope:.2f} MB/s/device, r^2={r2:.4f}")


def _cmd_fig7(args: argparse.Namespace) -> None:
    from repro.parallel import fig7_jobs

    _, payload = _scenario_payload(args)
    report = _run_matrix(fig7_jobs(tuple(args.devices), scenario=payload), args)
    host_tp = report.results[0].value
    rows = [
        {
            "devices": n,
            "host_mb_s": host_tp,
            "compstor_mb_s": tp,
            "aggregate_mb_s": host_tp + tp,
        }
        for n, tp in (tuple(r.value) for r in report.results[1:])
    ]
    print(format_series_table(
        "Fig. 7 — bzip2 throughput, host + N CompStors (MB/s)",
        ["devices", "host", "CompStors", "aggregate"],
        [[r["devices"], r["host_mb_s"], r["compstor_mb_s"], r["aggregate_mb_s"]]
         for r in rows],
    ))


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.parallel import fig8_jobs

    _, payload = _scenario_payload(args)
    report = _run_matrix(fig8_jobs(tuple(args.apps), scenario=payload), args)
    rows = [Fig8Row(**value) for value in report.values()]
    print(format_series_table(
        "Fig. 8 — energy per GB (J/GB), measured vs paper",
        ["app", "CompStor", "paper", "Xeon", "paper", "ratio", "paper ratio"],
        [[r.app, r.compstor_j_per_gb, r.paper_compstor, r.xeon_j_per_gb,
          r.paper_xeon, r.ratio, r.paper_ratio] for r in rows],
    ))


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
    from repro.cluster import StorageFleet
    from repro.proto import Command
    from repro.workloads import BookCorpus, CorpusSpec

    rows = []
    for nodes in args.nodes:
        books = BookCorpus(
            CorpusSpec(files=args.books_per_node * nodes, mean_file_bytes=32 * 1024)
        ).generate()
        fleet = StorageFleet.build(
            nodes=nodes, devices_per_node=args.devices,
            device_capacity=24 * 1024 * 1024,
        )
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
    derives N faults deterministically from ``--seed``.
    """
    from repro.cluster import StorageFleet
    from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
    from repro.proto import Command
    from repro.workloads import BookCorpus, CorpusSpec

    config, _ = _scenario_payload(args)
    if config is not None:
        from repro.config import build_corpus, build_fleet

        fleet = build_fleet(config)
        books = build_corpus(config)
        replicas = config.fleet.replicas
        seed = config.seed
    else:
        fleet = StorageFleet.build(
            nodes=args.nodes,
            devices_per_node=args.devices,
            seed=args.seed,
            device_capacity=24 * 1024 * 1024,
            retry_policy=RetryPolicy(),
            breaker_config=BreakerConfig(),
        )
        books = BookCorpus(
            CorpusSpec(files=args.books, mean_file_bytes=32 * 1024, seed=args.seed)
        ).generate()
        replicas = args.replicas
        seed = args.seed
    ring = fleet.device_ring()
    fleet.sim.run(
        fleet.sim.process(fleet.stage_corpus(books, replicas=replicas))
    )
    start = fleet.sim.now

    def targets(specs):
        for raw in specs:
            index, _, when = raw.partition("@")
            node, device = ring[int(index) % len(ring)]
            yield node, device, start + float(when or "0") * 1e-3

    ms = lambda value: None if value is None else value * 1e-3
    if config is not None and config.faults.any:
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


def _cmd_traffic(args: argparse.Namespace) -> None:
    """Serve seeded multi-tenant traffic against the fleet; print the SLO
    scorecard (p50/p99/p999, fairness, shed counts) per arrival mix.

    Each mix is one hermetic matrix cell, so cells shard across
    ``--workers`` and cache like figure cells; the trailing scorecard
    digest is the byte-stable identity CI pins.
    """
    from repro.parallel import payload_digest, traffic_jobs

    _, payload = _scenario_payload(args)
    report = _run_matrix(traffic_jobs(payload, mixes=tuple(args.mixes)), args)
    values = report.values()
    rows = []
    lost = 0
    for value in values:
        shed = sum(value["shed"].values())
        rows.append([
            value["pattern"], value["requests"], value["admitted"], shed,
            value["completed"], value["lost"],
            f"{value['p50_ms']:.3f}", f"{value['p99_ms']:.3f}",
            f"{value['p999_ms']:.3f}", f"{value['jain']:.4f}",
            value["violations"],
        ])
        lost += value["lost"]
    print(format_series_table(
        "traffic scorecard (end-to-end latency in ms)",
        ["mix", "offered", "admitted", "shed", "completed", "lost",
         "p50", "p99", "p999", "Jain", "SLO viol"],
        rows,
    ))
    print(f"scorecard digest={payload_digest(values)}")
    if lost:
        print(f"{lost} requests lost in dispatch", file=sys.stderr)
        raise SystemExit(1)


def _cmd_drill(args: argparse.Namespace) -> None:
    """Run the metastable-failure drill: the defenses-on cell and its
    defenses-off counterfactual (same scenario digest, same seed, same
    fault trigger), scored for goodput recovery after the trigger clears.

    The drill *fails* (exit 1) unless defenses-on recovers to the
    configured bar within the recovery window while defenses-off shows
    sustained degradation — the metastable signature.  Cells are hermetic
    matrix jobs, so they shard across ``--workers`` and cache; the
    trailing scorecard digest is the byte-stable identity CI pins.
    """
    from repro.parallel import drill_jobs, payload_digest

    _, payload = _scenario_payload(args)
    report = _run_matrix(drill_jobs(payload), args)
    values = report.values()
    rows = []
    failures = []
    for value in values:
        meta = value["metastable"]
        closed = value["closed"]
        arm = "on" if value["defenses"] else "off"
        rows.append([
            arm, closed["issued"], closed["retried"], closed["abandoned"],
            sum(value["shed"].values()), value.get("dropped") or 0,
            f"{meta['pre_goodput_per_window']:.1f}",
            "yes" if meta["recovered"] else "no",
            "-" if meta["recovered_after_ms"] is None
            else f"{meta['recovered_after_ms']:.0f}",
            "yes" if meta["sustained_degradation"] else "no",
        ])
        if value["defenses"] and not meta["recovered"]:
            failures.append("defenses-on did not recover within the window")
        if not value["defenses"] and not meta["sustained_degradation"]:
            failures.append("defenses-off did not sustain degradation")
    print(format_series_table(
        "metastable drill (goodput = fresh completions per window)",
        ["defenses", "issued", "retried", "abandoned", "shed", "dropped",
         "pre-trigger", "recovered", "after ms", "sustained degr."],
        rows,
    ))
    print(f"scorecard digest={payload_digest(values)}")
    if failures:
        for failure in failures:
            print(f"drill failed: {failure}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_objstore(args: argparse.Namespace) -> None:
    """Run the dedup object-store drill pair — the GC-under-crash ingest
    cell and the delete-wave reclamation stress — or, with ``--sweep``, the
    fig-style dedup-ratio sweep (one ingest cell per dial).

    Each cell is a hermetic matrix job (the scenario dict is the whole
    input), so cells shard across ``--workers`` and cache like figure
    cells; the trailing scorecard digest is the byte-stable identity CI
    pins.  The drill pair *fails* (exit 1) if any cell reports a lost or
    corrupted referenced block — the crash-recovery invariant.
    """
    from repro.parallel import objstore_jobs, objstore_sweep_jobs, payload_digest

    _, payload = _scenario_payload(args)
    if args.sweep is not None:
        dials = tuple(args.sweep) if args.sweep else None
        jobs = (
            objstore_sweep_jobs(payload)
            if dials is None
            else objstore_sweep_jobs(payload, dials=dials)
        )
        report = _run_matrix(jobs, args)
        values = report.values()
        rows = [
            [
                f"{value['dial']:.2f}", value["objects_committed"],
                value["chunks"], value["chunks_deduped"],
                value["offered_bytes"], value["stored_bytes"],
                value["deduped_bytes"], f"{value['measured_ratio']:.3f}",
            ]
            for value in values
        ]
        print(format_series_table(
            "dedup sweep (measured ratio = offered / stored bytes)",
            ["dial", "objects", "chunks", "deduped", "offered B",
             "stored B", "deduped B", "ratio"],
            rows,
        ))
        print(f"scorecard digest={payload_digest(values)}")
        return
    report = _run_matrix(objstore_jobs(payload), args)
    values = report.values()
    rows = []
    failures = []
    for name, value in zip(("ingest", "gc-drill"), values):
        integrity = value["integrity"]
        gets = value["gets"]
        rows.append([
            name, value["objects_committed"],
            value.get("objects_deleted", 0),
            f"{value['stats']['dedup_ratio']:.3f}",
            ",".join(value["down_during_gc"]) or "-",
            value["gc_during_crash"]["blocks"] + value["gc_after_recovery"]["blocks"],
            value.get("orphans_left", 0),
            gets["ok"], len(integrity["lost_blocks"]),
            "yes" if value["ok"] else "no",
        ])
        if not value["ok"]:
            detail = integrity["lost_blocks"] or integrity["refcount_drift"]
            failures.append(f"{name}: invariant violated ({detail or gets})")
    print(format_series_table(
        "objstore drill (GC raced against the crash window)",
        ["cell", "committed", "deleted", "ratio", "down during GC",
         "GC blocks", "orphans", "gets ok", "lost", "ok"],
        rows,
    ))
    print(f"scorecard digest={payload_digest(values)}")
    if failures:
        for failure in failures:
            print(f"objstore drill failed: {failure}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_backends(args: argparse.Namespace) -> None:
    """Compare device backends on a pinned cell set (same scenario, same
    apps, same device count per cell) and print a per-backend scorecard.

    The device backend must never change what a minion computes, so the
    verb *fails* (exit 1) if any app's minion output digest differs across
    backends; the throughput/GC/zone columns then isolate what the backend
    does change.  Cells are hermetic matrix jobs — they shard across
    ``--workers`` and cache — and the trailing scorecard digest is the
    byte-stable identity CI pins.  Table I rows are printed first for
    context: the comparison is between *device backends of this prototype*,
    not between the systems the paper surveys.
    """
    from repro.parallel import backends_jobs, payload_digest

    _, payload = _scenario_payload(args)
    backends = tuple(args.backends)
    apps = tuple(args.apps)
    report = _run_matrix(
        backends_jobs(backends, payload, apps=apps, devices=args.devices), args
    )
    values = report.values()
    print(format_series_table(
        "Table I context (architectural approaches)",
        ["system", "compute", "os", "apps", "interface"],
        table1_rows(),
    ))
    rows = [
        [
            value["backend"], value["app"], value["devices"], value["minions"],
            f"{value['throughput_mb_s']:.3f}", value["gc_collections"],
            f"{value['write_amplification']:.4f}",
            value["zones"]["resets"] if "zones" in value else "-",
            value["zones"]["retired"] if "zones" in value else "-",
            value["output_digest"],
        ]
        for value in values
    ]
    print(format_series_table(
        "backend scorecard (identical workload per backend)",
        ["backend", "app", "devices", "minions", "MB/s", "GC",
         "WA", "resets", "retired", "output digest"],
        rows,
    ))
    for backend in backends:
        cells = [value for value in values if value["backend"] == backend]
        print(f"{backend} digest={payload_digest(cells)}")
    print(f"scorecard digest={payload_digest(values)}")
    failures = []
    for app in apps:
        digests = {
            value["output_digest"] for value in values if value["app"] == app
        }
        if len(digests) > 1:
            failures.append(
                f"{app}: minion output differs across backends ({sorted(digests)})"
            )
    if failures:
        for failure in failures:
            print(f"backends failed: {failure}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_metrics(args: argparse.Namespace) -> None:
    """Run a workload with full observability on; dump every export surface.

    Emits the Prometheus text exposition, the JSON-lines samples, and the
    reconstructed span tree of the first minion — the six Table III
    lifecycle steps in causal order.
    """
    from repro.cluster import StorageNode
    from repro.cluster.scheduler import LeastLoadedBalancer, MinionDispatcher
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
    node = StorageNode.build(
        devices=args.devices,
        device_capacity=32 * 1024 * 1024,
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


def _cmd_bench(args: argparse.Namespace) -> None:
    """Measure simulator throughput on the pinned scenarios.

    Reports events/sec and wall clock per scenario and (unless ``--no-save``)
    writes ``BENCH_sim.json`` — the repo's perf-trajectory baseline that
    ``benchmarks/test_perf_guard.py`` regresses against.
    """
    from repro.analysis.perf import (
        load_bench_json,
        profile_scenario,
        run_bench,
        write_bench_json,
    )

    if args.profile:
        for name in args.scenario or ["n8"]:
            print(f"# == profile: {name} ==")
            print(profile_scenario(SCENARIOS[name], limit=args.profile_limit))
        return

    if args.workers > 1:
        print(
            "# bench: workers>1 contend for cores; treat numbers as "
            "exploration, not baselines (benchmarks/perf/README.md)",
            file=sys.stderr,
        )
    baseline = load_bench_json(args.output) if not args.no_save else load_bench_json()
    results = run_bench(args.scenario, repeat=args.repeat, workers=args.workers)
    rows = []
    for r in results:
        row = r.row()
        recorded = (baseline or {}).get("scenarios", {}).get(r.scenario)
        if recorded and recorded.get("events_per_sec"):
            row.append(f"{r.events_per_sec / recorded['events_per_sec']:.2f}x")
        else:
            row.append("-")
        rows.append(row)
    print(format_series_table(
        f"simulator throughput (best of {args.repeat})",
        ["scenario", "devices", "minions", "events", "wall ms", "events/sec",
         "vs baseline"],
        rows,
    ))
    if not args.no_save:
        path = write_bench_json(results, args.output)
        print(f"baseline written to {path}")


def _cmd_validate(args: argparse.Namespace) -> None:
    """Run the whole evaluation and print the reproduction scorecard.

    Claims are independent seeded experiments, so they shard across
    ``--workers`` processes; the scorecard is merged in paper order and is
    byte-identical at any worker count (and on cache hits).
    """
    from repro.analysis.validation import Claim
    from repro.parallel import validation_jobs

    _, payload = _scenario_payload(args)
    report = _run_matrix(validation_jobs(quick=args.quick, scenario=payload), args)
    claims = [Claim(**value) for value in report.values()]
    rows = [
        [("PASS" if c.passed else "FAIL"), c.source, c.claim, c.measured]
        for c in claims
    ]
    print(format_series_table(
        "reproduction scorecard", ["", "source", "paper claim", "measured"], rows
    ))
    failed = [c for c in claims if not c.passed]
    print(f"\n{len(claims) - len(failed)}/{len(claims)} claims reproduced")
    if failed:
        raise SystemExit(1)


def _cmd_quickstart(_args: argparse.Namespace) -> None:
    # late import: the examples directory is not a package
    from repro.cluster import StorageNode

    node = StorageNode.build(devices=1, device_capacity=16 * 1024 * 1024)
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

    p = sub.add_parser("fig1", help="bandwidth mismatch (Fig. 1)")
    p.add_argument("--devices", type=int, nargs="+", default=[1, 4, 8, 16, 32, 64])
    _add_parallel_args(p)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig6", help="linear scaling (Fig. 6)")
    p.add_argument("--app", default="grep",
                   choices=["grep", "gawk", "gzip", "gunzip", "bzip2", "bunzip2"])
    p.add_argument("--devices", type=int, nargs="+", default=[1, 2, 4])
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="fig6")
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("fig7", help="aggregate host+devices bzip2 (Fig. 7)")
    p.add_argument("--devices", type=int, nargs="+", default=[1, 2, 4])
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="fig6")
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("fig8", help="energy per GB (Fig. 8)")
    p.add_argument("--apps", nargs="+", default=list(FIG8_APPS),
                   choices=list(FIG8_APPS))
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="fig8-ablation")
    p.set_defaults(func=_cmd_fig8)

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

    p = sub.add_parser(
        "traffic", help="multi-tenant serving drill (admission/WFQ/SLO scorecard)"
    )
    p.add_argument(
        "--mixes", nargs="+", default=["poisson", "diurnal", "bursty"],
        choices=["poisson", "diurnal", "bursty"],
        help="arrival mixes to serve, one matrix cell each",
    )
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="traffic-smoke")
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser(
        "drill",
        help="metastable-failure drill (closed-loop load, defenses on vs off)",
    )
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="metastable")
    p.set_defaults(func=_cmd_drill)

    p = sub.add_parser(
        "objstore",
        help="dedup object-store drill (in-situ chunk+hash, GC under crash)",
    )
    p.add_argument(
        "--sweep", type=float, nargs="*", default=None, metavar="DIAL",
        help="run the dedup-ratio sweep instead of the drill pair; optional "
             "dial list overrides the default 0.0 0.25 0.5 0.75 0.9",
    )
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="objstore-smoke")
    p.set_defaults(func=_cmd_objstore)

    p = sub.add_parser(
        "backends",
        help="device-backend comparison (page vs zoned; minion outputs "
             "must match across backends)",
    )
    p.add_argument(
        "--backends", nargs="+", default=list(DEVICE_BACKENDS),
        choices=list(DEVICE_BACKENDS),
        help="device backends to compare, one cell set each",
    )
    p.add_argument(
        "--apps", nargs="+", default=["grep", "gzip"],
        choices=["grep", "gawk", "gzip", "bzip2"],
        help="apps to run per backend; outputs are digested per app",
    )
    p.add_argument("--devices", type=int, default=2,
                   help="CompStors per cell (weak scaling: files scale with it)")
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="smoke")
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("metrics", help="observability dump: metrics + span tree")
    p.add_argument("--workload", default="grep",
                   choices=["grep", "gawk", "gzip", "bzip2"])
    p.add_argument("--devices", type=int, default=4)
    p.add_argument("--files", type=int, default=4)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bench", help="simulator wall-clock perf harness")
    p.add_argument("--scenario", nargs="+", default=None,
                   choices=list(SCENARIOS),
                   help="pinned scenarios to run (default: n1 n4 n8)")
    p.add_argument("--repeat", type=int, default=3,
                   help="repetitions per scenario; fastest run is kept")
    p.add_argument("--output", default=None,
                   help="baseline path (default: <repo>/BENCH_sim.json)")
    p.add_argument("--no-save", action="store_true",
                   help="measure and print only; do not rewrite the baseline")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the measured region instead of timing it")
    p.add_argument("--profile-limit", type=int, default=25,
                   help="rows of the profile table to print")
    _add_parallel_args(p, cached=False)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="grade every paper claim (scorecard)")
    p.add_argument("--quick", action="store_true", help="smaller device sweep")
    _add_parallel_args(p)
    add_scenario_args(p, default_preset="fig6")
    p.set_defaults(func=_cmd_validate)

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
