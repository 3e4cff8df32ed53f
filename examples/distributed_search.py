#!/usr/bin/env python3
"""Distributed in-situ search across a book corpus (the paper's IO-bound
workload, Figs. 6 and 8).

Generates a synthetic book corpus, distributes it round-robin over N
CompStors, then:

1. searches every book in-situ (one concurrent minion per book) and checks
   the match counts against the corpus's known needle injections;
2. repeats the search on the host (data pulled over NVMe/PCIe to the Xeon);
3. prints throughput for 1..N devices (Fig. 6 shape) and the energy per
   gigabyte for both platforms (Fig. 8 shape).

Run:  python examples/distributed_search.py
"""

from repro.analysis.experiments import format_series_table, throughput_mb_s
from repro.baselines import HostOnlyRunner
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

SPEC = CorpusSpec(files=12, mean_file_bytes=128 * 1024, size_spread=0.3)


def in_situ_search(devices: int, books) -> tuple[float, int, float]:
    """Returns (throughput MB/s, total matches, device J/GB)."""
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=devices),
    ))
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))

    assignments = [
        (device, Command(command_line=f"grep {SPEC.needle} {book.name}"))
        for device, part in node.device_books(books).items()
        for book in part
    ]
    mark = node.meter.snapshot()

    def experiment():
        start = sim.now
        responses = yield from node.client.gather(assignments)
        return responses, sim.now - start

    responses, seconds = sim.run(sim.process(experiment()))
    report = node.meter.window(mark)
    total_bytes = sum(b.plain_size for b in books)
    matches = sum(int(r.stdout) for r in responses if r.stdout)
    device_prefixes = [f"compstor{i}" for i in range(devices)]
    j_per_gb = report.subset(device_prefixes) / (total_bytes / 1e9)
    return throughput_mb_s(total_bytes, seconds), matches, j_per_gb


def host_search(books) -> tuple[float, int, float]:
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=True),
    ))
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False, include_host=True)))
    runner = HostOnlyRunner(node)
    mark = node.meter.snapshot()

    def experiment():
        return (
            yield from runner.run_many(
                [f"grep {SPEC.needle} {book.name}" for book in books]
            )
        )

    statuses, seconds = sim.run(sim.process(experiment()))
    report = node.meter.window(mark)
    total_bytes = sum(b.plain_size for b in books)
    matches = sum(int(s.stdout) for s in statuses if s.stdout)
    j_per_gb = report.subset(["host", "baseline-ssd", "fabric"]) / (total_bytes / 1e9)
    return throughput_mb_s(total_bytes, seconds), matches, j_per_gb


def main() -> None:
    books = BookCorpus(SPEC).generate()
    expected = sum(b.needle_count for b in books)
    total_mb = sum(b.plain_size for b in books) / 1e6
    print(f"corpus: {len(books)} books, {total_mb:.1f} MB plain text, "
          f"{expected} injected needles\n")

    rows = []
    for devices in (1, 2, 4):
        tp, matches, j_per_gb = in_situ_search(devices, books)
        assert matches >= expected, "in-situ search missed needles"
        rows.append([f"{devices} CompStor(s)", tp, j_per_gb])

    host_tp, host_matches, host_j = host_search(books)
    assert host_matches >= expected, "host search missed needles"
    rows.append(["host Xeon", host_tp, host_j])

    print(format_series_table(
        "grep: in-situ scaling vs host (Fig. 6 / Fig. 8 shapes)",
        ["platform", "throughput MB/s", "energy J/GB"],
        rows,
    ))
    device_j = rows[0][2]
    print(f"\nenergy advantage at 1 device: {host_j / device_j:.1f}x "
          f"(paper reports ~3.3x for search)")


if __name__ == "__main__":
    main()
