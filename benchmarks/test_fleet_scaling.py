"""Fleet-level weak scaling — the paper's closing claim.

"Considering a data center containing hundreds of CompStor equipped storage
nodes, there could be thousands of concurrent minions, resulting in heavy
parallelism at the storage unit level."  This bench grows the fleet with a
fixed per-node dataset and checks aggregate throughput scales with node
count, with hundreds of concurrent minions in flight.
"""

from repro.analysis.experiments import format_series_table, linear_fit, throughput_mb_s
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

NODE_COUNTS = (1, 2, 4)
BOOKS_PER_NODE = 16
DEVICES_PER_NODE = 2


def run_fleet(nodes: int) -> tuple[float, int]:
    books = BookCorpus(
        CorpusSpec(files=BOOKS_PER_NODE * nodes, mean_file_bytes=32 * 1024,
                   size_spread=0.1)
    ).generate()
    fleet = build_fleet(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=nodes, devices_per_node=DEVICES_PER_NODE),
    ))
    fleet.sim.run(fleet.sim.process(fleet.stage_corpus(books)))

    def job():
        return (
            yield from fleet.run_job(
                books, lambda b: Command(command_line=f"gawk xylophone {b.name}")
            )
        )

    responses, wall = fleet.sim.run(fleet.sim.process(job()))
    assert len(responses) == len(books)
    assert all(r is not None and r.exit_code == 0 for r in responses)
    total_bytes = sum(b.plain_size for b in books)
    return throughput_mb_s(total_bytes, wall), len(books)


def test_fleet_scaling(benchmark):
    def experiment():
        return {n: run_fleet(n) for n in NODE_COUNTS}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [[n, minions, tp] for n, (tp, minions) in sorted(results.items())]
    print("\n" + format_series_table(
        "Fleet weak scaling — gawk across nodes (concurrent minions)",
        ["nodes", "concurrent minions", "aggregate MB/s"],
        rows,
    ))

    xs = [n for n, _ in sorted(results.items())]
    ys = [results[n][0] for n in xs]
    slope, _, r2 = linear_fit(xs, ys)
    assert slope > 0
    assert r2 > 0.97, f"fleet scaling not linear: r^2={r2}"
    # doubling the fleet delivers at least ~1.5x aggregate throughput
    assert results[2][0] > 1.5 * results[1][0]
    assert results[4][0] > 1.5 * results[2][0]
