#!/usr/bin/env python3
"""Offloaded compression: the paper's compute-bound workload (Figs. 7 / 8).

Compresses a book corpus with bzip2 two ways — in-situ on 1..N CompStors and
on the host Xeon — and prints the Fig. 7 aggregate-performance table plus
the gzip-family energy comparison.  Compression here is *functional*: real
bz2 streams, real output files on the device filesystem, real ratios.

Run:  python examples/compression_offload.py
"""

from repro.analysis.experiments import format_series_table
from repro.analysis.figures import run_fig7, run_fig8
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.workloads import BookCorpus, CorpusSpec


def verify_functional_roundtrip() -> None:
    """In-situ bzip2 then bunzip2 restores the original bytes."""
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1),
    ))
    sim = node.sim
    book = BookCorpus(CorpusSpec(files=1, mean_file_bytes=64 * 1024)).generate()[0]
    ssd = node.compstors[0]
    sim.run(sim.process(ssd.fs.write_file(book.name, book.plain)))

    def flow():
        r1 = yield from node.client.run("compstor0", f"bzip2 {book.name}")
        assert r1.ok, r1.stdout
        yield from ssd.fs.delete(book.name)
        r2 = yield from node.client.run("compstor0", f"bunzip2 {book.name}.bz2")
        assert r2.ok, r2.stdout
        restored = yield from ssd.fs.read_file(book.name)
        return r1.detail["ratio"], restored

    ratio, restored = sim.run(sim.process(flow()))
    assert restored == book.plain, "round trip corrupted the book!"
    print(f"functional check: bzip2 ratio {ratio:.3f}, "
          f"round-trip restored {len(restored)} bytes exactly\n")


def main() -> None:
    verify_functional_roundtrip()

    rows = run_fig7(device_counts=(1, 2, 4))
    print(format_series_table(
        "Fig. 7 — aggregated bzip2 throughput (host + N CompStors), MB/s",
        ["devices", "host", "CompStors", "aggregate"],
        [[r["devices"], r["host_mb_s"], r["compstor_mb_s"], r["aggregate_mb_s"]]
         for r in rows],
    ))
    print("\n(one quad-A53 device is far below the Xeon, as the paper notes;"
          "\n the device contribution grows linearly and becomes comparable at scale)\n")

    fig8 = run_fig8(apps=("gzip", "gunzip", "bzip2", "bunzip2"))
    print(format_series_table(
        "Fig. 8 — compression energy (J/GB), measured vs paper",
        ["app", "CompStor", "paper", "Xeon", "paper", "ratio", "paper ratio"],
        [[r.app, r.compstor_j_per_gb, r.paper_compstor, r.xeon_j_per_gb,
          r.paper_xeon, r.ratio, r.paper_ratio] for r in fig8],
    ))


if __name__ == "__main__":
    main()
