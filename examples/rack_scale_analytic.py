#!/usr/bin/env python3
"""Rack-scale what-if in analytic mode.

Functional byte movement is wonderful for correctness but too slow for a
64-drive, multi-terabyte what-if.  Analytic mode keeps every timing and
energy model live while skipping payloads, so this example can answer the
paper's *motivating* question at realistic scale:

    a storage server full of CompStors scans a multi-GB shard per drive —
    how do wall time and the data-over-PCIe compare with hauling everything
    to the host?

Run:  python examples/rack_scale_analytic.py
"""

from repro.analysis.experiments import format_series_table, throughput_mb_s
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

DEVICES = 8
BOOKS_PER_DEVICE = 2
BOOK_BYTES = 24 * 1024 * 1024  # 24 MB shards; scale up as patience allows


def main() -> None:
    spec = CorpusSpec(
        files=DEVICES * BOOKS_PER_DEVICE,
        mean_file_bytes=BOOK_BYTES,
        size_spread=0.05,
    )
    books = BookCorpus(spec).generate(functional=False)  # analytic: no payloads
    total_bytes = sum(b.plain_size for b in books)

    node = build_node(ScenarioConfig(
        flash=FlashConfig(
            capacity_bytes=4 * BOOKS_PER_DEVICE * BOOK_BYTES, store_data=False
        ),
        fleet=FleetConfig(devices_per_node=DEVICES),
    ))
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    placement = node.device_books(books)

    def in_situ_scan():
        assignments = [
            (device, Command(command_line=f"grep {spec.needle} {book.name}"))
            for device, part in placement.items()
            for book in part
        ]
        mark = node.meter.snapshot()
        start = sim.now
        responses = yield from node.client.gather(assignments)
        seconds = sim.now - start
        report = node.meter.window(mark)
        assert all(r is not None for r in responses)
        wire_bytes = sum(r.wire_bytes for r in responses) + sum(
            c.wire_bytes for _, c in assignments
        )
        device_j = report.subset([f"compstor{i}" for i in range(DEVICES)])
        return seconds, wire_bytes, device_j

    seconds, wire_bytes, device_j = sim.run(sim.process(in_situ_scan()))

    # the conventional alternative: every byte crosses a device link and the
    # shared uplink before the Xeon sees it — bandwidth accounting
    uplink = node.fabric.host_ingest_bandwidth
    per_link = node.fabric.ports[0].bandwidth
    pull_seconds = max(
        total_bytes / uplink,  # the funnel
        (total_bytes / DEVICES) / per_link,  # per-device link
    )

    print(format_series_table(
        f"rack-scale analytic scan: {DEVICES} CompStors, "
        f"{total_bytes / 1e9:.1f} GB of text",
        ["metric", "in-situ", "host-pull (bandwidth floor)"],
        [
            ["wall time (s)", seconds, pull_seconds],
            ["data over PCIe (MB)", wire_bytes / 1e6, total_bytes / 1e6],
            ["scan throughput (MB/s)", throughput_mb_s(total_bytes, seconds),
             throughput_mb_s(total_bytes, pull_seconds)],
        ],
    ))
    print(f"\nPCIe traffic reduction: {total_bytes / wire_bytes:,.0f}x")
    print(f"device-attributed energy: {device_j:.1f} J "
          f"({device_j / (total_bytes / 1e9):.0f} J/GB)")
    print("\nnote: the host-pull column is a pure bandwidth floor (no host CPU");
    print("cost included) — the in-situ side still ships only counts.")


if __name__ == "__main__":
    main()
