"""Ablation — result selectivity: when does in-situ stop saving the wire?

The paper: "only a command and a resulting data need to transfer over the
storage interface".  That saving depends on the *result size*.  This bench
runs ``filter`` (which emits the matching lines, not a count) over corpora
with increasing needle density and reports bytes moved over PCIe per byte
scanned — from ~0 (rare matches) towards 1 (everything matches), where
in-situ processing no longer reduces traffic at all.
"""

from repro.analysis.experiments import format_series_table
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.workloads import BookCorpus, CorpusSpec

DENSITIES = (0.0, 0.01, 0.10, 0.45)
FILE_BYTES = 192 * 1024


def run_density(needle_rate: float) -> dict:
    spec = CorpusSpec(files=2, mean_file_bytes=FILE_BYTES, needle_rate=needle_rate,
                      size_spread=0.05)
    books = BookCorpus(spec).generate()
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1),
    ))
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    scanned = sum(b.plain_size for b in books)

    def flow():
        emitted = 0
        for book in books:
            response = yield from node.client.run(
                "compstor0", f"filter {spec.needle} {book.name}"
            )
            emitted += response.detail.get("bytes_emitted", 0)
        return emitted

    emitted = sim.run(sim.process(flow()))
    # wire bytes: minion envelopes + the emitted lines (response payloads)
    wire = emitted + 2 * 2 * 256  # two round trips of envelope overhead
    return {
        "needle_rate": needle_rate,
        "scanned": scanned,
        "emitted": emitted,
        "wire_fraction": wire / scanned,
    }


def test_ablation_selectivity(benchmark):
    def experiment():
        return [run_density(d) for d in DENSITIES]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print("\n" + format_series_table(
        "Ablation — wire traffic vs match selectivity (filter, in-situ)",
        ["needle rate", "bytes scanned", "bytes emitted", "wire/scanned"],
        [[r["needle_rate"], r["scanned"], r["emitted"], r["wire_fraction"]]
         for r in rows],
    ))

    fractions = [r["wire_fraction"] for r in rows]
    # monotone: denser matches -> more result bytes on the wire
    assert fractions == sorted(fractions)
    # rare matches: in-situ moves <1% of what the host path would
    assert fractions[0] < 0.01
    # ~11-word lines make a 1% word-level needle rate a ~10% line-match
    # rate — the wire saving is already an order of magnitude, not three
    assert fractions[1] < 0.2
    # at ~45% of words being needles, essentially every line matches and
    # in-situ stops saving traffic (the paper's implicit boundary)
    assert fractions[-1] > 0.9
    # match counts really grow with density (functional check)
    emitted = [r["emitted"] for r in rows]
    assert emitted[0] == 0 and all(a < b for a, b in zip(emitted, emitted[1:]))
