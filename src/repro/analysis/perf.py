"""Wall-clock performance harness for the simulator itself.

The paper's headline figures are produced by sweeping fleet sizes through
the discrete-event simulator, so simulator throughput (events/sec of wall
clock) bounds how many scenarios the repo can explore.  This module pins a
set of scenarios — the N=1/4/8-device gzip+grep sweep underlying the
Fig. 6/7 runners — and measures them reproducibly:

- corpus generation and staging are *excluded* from the timed region (they
  are workload setup, not simulation);
- the measured region is the in-situ job phase: a gzip pass followed by a
  grep pass over the staged corpus;
- ``events_per_sec`` is ``Simulator.events_processed`` delta over elapsed
  wall seconds, the metric the perf guard and BENCH_sim.json track.

Run via ``python -m repro bench`` (see the CLI) or programmatically::

    from repro.analysis.perf import SCENARIOS, run_bench, write_bench_json
    results = run_bench(["n8"], repeat=3)

This file intentionally uses wall-clock time (``time.perf_counter``): it
measures the host, not the model.  The RNG/wall-clock lint allowlists it.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Generator, Sequence

from repro.config import ScenarioConfig, build_corpus, build_node
from repro.config.factory import scenario_for_node
from repro.proto.entities import Command
from repro.workloads import CorpusSpec

__all__ = [
    "BenchResult",
    "BenchScenario",
    "SCENARIOS",
    "load_bench_json",
    "run_bench",
    "run_scenario",
    "write_bench_json",
]

BENCH_SCHEMA = "repro.bench.v1"

#: Default baseline location: the repo root, so the perf trajectory is a
#: first-class, diffable artifact (``BENCH_sim.json``).
DEFAULT_BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_sim.json"


@dataclass(frozen=True, slots=True)
class BenchScenario:
    """One pinned measurement: an N-device node running gzip then grep.

    Weak scaling like Fig. 6: ``files_per_device`` is constant, so the
    total corpus grows with the device count and per-device work is fixed.

    ``device_backend`` selects the translation backend; ``"page"`` leaves
    the scenario's ``device`` section unset, keeping pre-backend configs —
    and their digests — byte-identical.
    """

    name: str
    devices: int
    files_per_device: int = 6
    mean_file_bytes: int = 64 * 1024
    seed: int = 1234
    device_backend: str = "page"

    @property
    def files(self) -> int:
        return self.devices * self.files_per_device

    def config(self) -> ScenarioConfig:
        """This measurement as a typed scenario (digested in bench logs)."""
        from dataclasses import replace

        base = scenario_for_node(
            name=f"bench-{self.name}",
            devices=self.devices,
            seed=self.seed,
            device_capacity=48 * 1024 * 1024,
            store_data=True,
        )
        if self.device_backend != "page":
            from repro.config.schema import DeviceBackendConfig

            base = replace(
                base, device=DeviceBackendConfig(backend=self.device_backend)
            )
        return replace(
            base,
            corpus=CorpusSpec(
                files=self.files,
                mean_file_bytes=self.mean_file_bytes,
                size_spread=0.2,
                seed=self.seed,
            ),
        )

    def build(self):
        """Construct the staged system; returns ``(node, books)``.

        Everything here is setup and excluded from the timed region.
        """
        config = self.config()
        books = build_corpus(config)
        node = build_node(config)
        node.sim.run(node.sim.process(node.stage_corpus(books, compressed=False)))
        return node, books

    def job(self, node, books) -> Generator:
        """The measured job: one gzip pass, then one grep pass."""
        placement = node.device_books(books)
        gzip_assignments = [
            (device, Command(command_line=f"gzip {book.name}"))
            for device, part in placement.items()
            for book in part
        ]
        grep_assignments = [
            (device, Command(command_line=f"grep xylophone {book.name}"))
            for device, part in placement.items()
            for book in part
        ]
        gzip_responses = yield from node.client.gather(gzip_assignments)
        grep_responses = yield from node.client.gather(grep_assignments)
        return gzip_responses + grep_responses


@dataclass(frozen=True, slots=True)
class BenchResult:
    """One scenario's measurement (best run of ``repeat``)."""

    scenario: str
    devices: int
    files: int
    events: int
    wall_seconds: float
    sim_seconds: float
    events_per_sec: float
    minions: int
    runs: int

    def row(self) -> list:
        return [
            self.scenario, self.devices, self.minions, self.events,
            f"{self.wall_seconds * 1e3:.1f}", f"{self.events_per_sec:,.0f}",
        ]


SCENARIOS: dict[str, BenchScenario] = {
    "small": BenchScenario("small", devices=1, files_per_device=4,
                           mean_file_bytes=32 * 1024),
    "n1": BenchScenario("n1", devices=1),
    "n4": BenchScenario("n4", devices=4),
    "n8": BenchScenario("n8", devices=8),
    "n16": BenchScenario("n16", devices=16),
    "n64": BenchScenario("n64", devices=64),
    "zoned-n8": BenchScenario("zoned-n8", devices=8, device_backend="zoned"),
}


def run_scenario(scenario: BenchScenario, repeat: int = 1) -> BenchResult:
    """Measure one scenario ``repeat`` times; keep the fastest run.

    Each repetition rebuilds the system from scratch (fresh simulator,
    fresh corpus staging) so runs are independent and deterministic; only
    the wall clock varies with host noise, hence best-of-N.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best: BenchResult | None = None
    for _ in range(repeat):
        node, books = scenario.build()
        sim = node.sim
        events_before = sim.events_processed
        sim_before = sim.now
        t0 = time.perf_counter()
        responses = sim.run(sim.process(scenario.job(node, books)))
        wall = time.perf_counter() - t0
        bad = [
            r for r in responses
            if r is None or r.status.value not in ("ok", "app-error")
        ]
        if bad:
            raise RuntimeError(
                f"bench scenario {scenario.name!r} failed on {len(bad)} minions"
            )
        events = sim.events_processed - events_before
        result = BenchResult(
            scenario=scenario.name,
            devices=scenario.devices,
            files=scenario.files,
            events=events,
            wall_seconds=wall,
            sim_seconds=sim.now - sim_before,
            events_per_sec=events / wall if wall > 0 else 0.0,
            minions=len(responses),
            runs=repeat,
        )
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    assert best is not None
    return best


def run_bench(
    names: Sequence[str] | None = None, repeat: int = 1
) -> list[BenchResult]:
    """Run the named scenarios (default: n1, n4, n8) in order, serially:
    concurrent measurements would contend for cores (see
    ``benchmarks/perf/README.md`` for the interleaved A/B protocol)."""
    picked = list(names) if names else ["n1", "n4", "n8"]
    unknown = [n for n in picked if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown bench scenarios {unknown}; have {sorted(SCENARIOS)}")
    return [run_scenario(SCENARIOS[name], repeat=repeat) for name in picked]


def profile_scenario(scenario: BenchScenario, limit: int = 25) -> str:
    """cProfile the measured region; returns the formatted hot-function table."""
    import cProfile
    import io
    import pstats

    node, books = scenario.build()
    sim = node.sim
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(sim.process(scenario.job(node, books)))
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(limit)
    return buf.getvalue()


# -- BENCH_sim.json ---------------------------------------------------------


def write_bench_json(
    results: Sequence[BenchResult], path: str | Path | None = None
) -> Path:
    """Persist results as the repo's perf baseline artifact."""
    path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    payload = {
        "schema": BENCH_SCHEMA,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "scenarios": {
            r.scenario: {
                "devices": r.devices,
                "files": r.files,
                "minions": r.minions,
                "events": r.events,
                "wall_seconds": round(r.wall_seconds, 6),
                "sim_seconds": r.sim_seconds,
                "events_per_sec": round(r.events_per_sec, 1),
                "runs": r.runs,
            }
            for r in results
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: str | Path | None = None) -> dict | None:
    """The recorded baseline, or ``None`` when absent (fresh clone)."""
    path = Path(path) if path is not None else DEFAULT_BENCH_PATH
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"unrecognised bench schema in {path}: {data.get('schema')!r}")
    return data
