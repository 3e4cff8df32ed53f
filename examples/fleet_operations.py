#!/usr/bin/env python3
"""Fleet operations: telemetry, SMART health, and balanced job placement.

The operator's view of a CompStor deployment: a rack of storage nodes runs
a mixed in-situ workload while the coordinator polls per-device telemetry
(ARM-core utilisation, temperature — the paper's load-balancing signals)
and drive SMART logs (wear, write amplification, GC activity), then prints
the fleet health report an SRE dashboard would render.

Run:  python examples/fleet_operations.py
"""

from repro.analysis.experiments import format_series_table
from repro.config import (
    FlashConfig,
    FleetConfig,
    ScenarioConfig,
    build_corpus,
    build_fleet,
    config_digest,
)
from repro.obs import MetricsRegistry
from repro.proto import Command
from repro.workloads import CorpusSpec

#: A 2x2 rack and its workload, declared once; the corpus and the fleet
#: both derive from it so they can never drift apart.
SCENARIO = ScenarioConfig(
    name="fleet-ops",
    flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
    fleet=FleetConfig(nodes=2, devices_per_node=2),
    corpus=CorpusSpec(files=12, mean_file_bytes=64 * 1024),
)


def main() -> None:
    print(f"scenario {SCENARIO.name} digest={config_digest(SCENARIO)[:16]}")
    # an enabled registry keeps the client round-trip histogram that
    # fleet.health() takes its minion-latency percentiles from
    fleet = build_fleet(SCENARIO, metrics=MetricsRegistry())
    sim = fleet.sim
    books = build_corpus(SCENARIO)
    sim.run(sim.process(fleet.stage_corpus(books)))

    def workload():
        # mixed job: compress odd shards, scan even shards
        def command_for(book):
            index = int(book.name[4:8])
            if index % 2:
                return Command(command_line=f"bzip2 {book.name}")
            return Command(command_line=f"grep xylophone {book.name}")

        responses, wall = yield from fleet.run_job(books, command_for)
        ok = sum(1 for r in responses if r.exit_code in (0, 1))
        print(f"job: {len(responses)} minions over {fleet.total_devices} devices "
              f"in {wall * 1e3:.1f} ms simulated ({ok} completed)\n")

        # telemetry sweep (the query path)
        snaps = yield from fleet.telemetry()
        rows = [
            [f"node{n}/{dev}", f"{s.core_utilization * 100:.1f}%",
             f"{s.temperature_c:.1f}C", s.running_processes]
            for (n, dev), s in sorted(snaps.items())
        ]
        print(format_series_table(
            "fleet telemetry (STATUS queries)",
            ["device", "cores busy", "temp", "procs"],
            rows,
        ))

    sim.run(sim.process(workload()))

    # SMART sweep (the admin path — what a monitoring agent scrapes)
    rows = []
    for n, node in enumerate(fleet.nodes):
        for ssd in node.compstors:
            smart = ssd.controller.smart_log()
            rows.append([
                f"node{n}/{ssd.name}",
                smart["host_writes"],
                smart["percentage_used"],
                f"{smart['write_amplification']:.2f}",
                smart["gc_collections"],
                smart["bad_blocks"],
            ])
    print("\n" + format_series_table(
        "fleet SMART health",
        ["device", "host writes", "% used", "WA", "GC runs", "bad blocks"],
        rows,
    ))
    print(f"\ntotal minions served: {fleet.total_minions_served()}")

    # fleet health rollup: telemetry + SMART + minion latencies in one report
    def rollup():
        health = yield from fleet.health()
        return health

    health = sim.run(sim.process(rollup()))
    print("\n" + format_series_table(
        "fleet health", ["attribute", "value"], health.rows()
    ))


if __name__ == "__main__":
    main()
