"""Experiment runners that regenerate the paper's figures.

Each ``run_figN`` function builds a fresh system, drives the measurement
protocol the paper describes, and returns plain data that the benches
assert on and the examples print.  Workload sizes default to functional-mode
scales that finish in seconds of wall clock; pass a larger
:class:`~repro.workloads.corpus.CorpusSpec` (or ``functional=False``) to
approach paper scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Generator, Sequence

from repro.analysis.calibration import PAPER_FIG8_J_PER_GB
from repro.analysis.experiments import linear_fit, throughput_mb_s
from repro.baselines.hostonly import HostOnlyRunner
from repro.cluster.node import StorageNode
from repro.config import ScenarioConfig, scenario_from_dict
from repro.flash import FlashArray
from repro.pcie import PcieFabric
from repro.proto.entities import Command
from repro.sim import Simulator
from repro.workloads import BookCorpus, CorpusSpec

__all__ = [
    "Fig1Row",
    "Fig8Row",
    "fig1_cell",
    "fig6_cell",
    "fig7_host_cell",
    "fig8_cell",
    "run_fig1",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "DEFAULT_FIG6_SPEC",
]

#: Per-device corpus share for the weak-scaling experiments: enough files
#: that every A53 core has parallel work.
DEFAULT_FIG6_SPEC = CorpusSpec(files=8, mean_file_bytes=96 * 1024, size_spread=0.2)


# ---------------------------------------------------------------------------
# Fig. 1 — bandwidth mismatch in high-capacity storage servers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fig1Row:
    ssd_count: int
    media_bandwidth_bps: float  # aggregate flash bandwidth of all SSDs
    endpoint_link_bps: float  # one SSD's PCIe link
    host_ingest_bps: float  # the x16 uplink ceiling
    mismatch: float  # media / host ingest


def _fig1_row(count: int) -> Fig1Row:
    sim = Simulator()
    fabric = PcieFabric(sim, endpoints=count)
    media_per_ssd = FlashArray(sim).aggregate_bandwidth
    return Fig1Row(
        ssd_count=count,
        media_bandwidth_bps=count * media_per_ssd,
        endpoint_link_bps=fabric.ports[0].bandwidth,
        host_ingest_bps=fabric.host_ingest_bandwidth,
        mismatch=fabric.mismatch_factor(media_per_ssd),
    )


def run_fig1(ssd_counts: Sequence[int] = (1, 4, 8, 16, 32, 64)) -> list[Fig1Row]:
    """The paper's bandwidth-accounting argument, from the models.

    Per-SSD media bandwidth comes from the default 16-channel x 533 MB/s
    flash array; fabric numbers from the Gen3 x16-uplink / x4-endpoint
    topology (Fig. 2).
    """
    return [_fig1_row(count) for count in ssd_counts]


def fig1_cell(ssd_count: int) -> dict:
    """One Fig. 1 row as a JSON-encodable parallel-runner work item."""
    return asdict(_fig1_row(ssd_count))


# ---------------------------------------------------------------------------
# Fig. 6 — performance scales linearly with the number of CompStors
# ---------------------------------------------------------------------------

def _stage_and_commands(
    node: StorageNode, books, app: str
) -> list[tuple[str, Command]]:
    """Round-robin placement -> (device, command) assignments for ``app``."""
    placement = node.device_books(books)
    assignments = []
    for device, part in placement.items():
        for book in part:
            if app in ("gunzip", "bunzip2"):
                target = book.compressed_name
            else:
                target = book.name
            if app in ("grep", "gawk"):
                line = f"{app} xylophone {target}"
            else:
                line = f"{app} {target}"
            assignments.append((device, Command(command_line=line)))
    return assignments


def _corpus_for(app: str, spec: CorpusSpec, functional: bool):
    """Generate a corpus whose on-device form suits ``app``."""
    if app == "gunzip":
        spec = replace(spec, compressions=("gzip",))
    elif app == "bunzip2":
        spec = replace(spec, compressions=("bzip2",))
    books = BookCorpus(spec).generate(functional=functional)
    return books


def _build_node(
    count: int,
    functional: bool,
    device_capacity: int,
    with_baseline_ssd: bool = False,
    scenario: ScenarioConfig | None = None,
) -> StorageNode:
    """The figure runners' node: from the scenario when given, else legacy.

    Both paths share one construction sequence
    (:func:`repro.config.factory.build_node`); the scenario path simply
    carries the full typed description (FTL/ECC/NVMe/CPU knobs included)
    instead of the three scalars.
    """
    if scenario is None:
        return StorageNode.build(
            devices=count, device_capacity=device_capacity,
            store_data=functional, with_baseline_ssd=with_baseline_ssd,
        )
    from repro.config.factory import build_node

    cell = replace(
        scenario,
        flash=replace(
            scenario.flash,
            capacity_bytes=device_capacity,
            store_data=functional,
        ),
        fleet=replace(
            scenario.fleet,
            devices_per_node=count,
            with_baseline_ssd=with_baseline_ssd,
        ),
    )
    return build_node(cell)


def _input_bytes(books, app: str) -> int:
    if app in ("gunzip", "bunzip2"):
        return sum(b.compressed_size for b in books)
    return sum(b.plain_size for b in books)


def run_fig6(
    app: str = "grep",
    device_counts: Sequence[int] = (1, 2, 4),
    spec: CorpusSpec = DEFAULT_FIG6_SPEC,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scale_dataset_with_devices: bool = True,
    scenario: ScenarioConfig | None = None,
) -> list[tuple[int, float]]:
    """Throughput (MB/s of input scanned) vs number of CompStors.

    Follows the paper's weak-scaling methodology ("a fixed amount of input
    data per each CompStor"): the file count grows with the device count, so
    per-device work is constant and aggregate throughput scales with N.
    Returns ``[(n_devices, throughput_mb_s), ...]``.

    ``scenario`` supersedes ``spec``/``functional``/``device_capacity`` and
    additionally threads its FTL/ECC/NVMe/CPU sections into construction.
    """
    if scenario is not None:
        spec = scenario.corpus
        functional = scenario.flash.store_data
        device_capacity = scenario.flash.capacity_bytes
    return [
        _fig6_one(
            app, count, spec, functional, device_capacity,
            scale_dataset_with_devices, scenario,
        )
        for count in device_counts
    ]


def _fig6_one(
    app: str,
    count: int,
    spec: CorpusSpec,
    functional: bool,
    device_capacity: int,
    scale_dataset_with_devices: bool,
    scenario: ScenarioConfig | None = None,
) -> tuple[int, float]:
    """One Fig. 6 cell: throughput of ``app`` on a ``count``-device node."""
    spec_n = spec
    if scale_dataset_with_devices:
        spec_n = replace(spec, files=spec.files * count)
    books = _corpus_for(app, spec_n, functional)
    node = _build_node(count, functional, device_capacity, scenario=scenario)
    compressed = app in ("gunzip", "bunzip2")
    node.sim.run(node.sim.process(node.stage_corpus(books, compressed=compressed)))
    assignments = _stage_and_commands(node, books, app)

    def experiment() -> Generator:
        start = node.sim.now
        responses = yield from node.client.gather(assignments)
        return responses, node.sim.now - start

    responses, seconds = node.sim.run(node.sim.process(experiment()))
    bad = [r for r in responses if r is None or r.status.value not in ("ok", "app-error")]
    if bad:
        raise RuntimeError(f"fig6 run failed on {len(bad)} minions")
    return count, throughput_mb_s(_input_bytes(books, app), seconds)


def fig6_cell(
    app: str,
    devices: int,
    files: int = DEFAULT_FIG6_SPEC.files,
    mean_file_bytes: int = DEFAULT_FIG6_SPEC.mean_file_bytes,
    size_spread: float = DEFAULT_FIG6_SPEC.size_spread,
    seed: int = DEFAULT_FIG6_SPEC.seed,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scale_dataset_with_devices: bool = True,
    scenario: dict | None = None,
) -> list:
    """One Fig. 6 cell as a JSON-encodable parallel-runner work item.

    Defaults reproduce :data:`DEFAULT_FIG6_SPEC`.  ``scenario`` is a
    :class:`~repro.config.ScenarioConfig` as a plain dict (the form job
    kwargs travel in, so it participates in the cache key); it supersedes
    the scalar corpus/capacity kwargs.
    """
    if scenario is not None:
        config = scenario_from_dict(scenario)
        count, throughput = _fig6_one(
            app, devices, config.corpus, config.flash.store_data,
            config.flash.capacity_bytes, scale_dataset_with_devices, config,
        )
        return [count, throughput]
    spec = CorpusSpec(
        files=files, mean_file_bytes=mean_file_bytes,
        size_spread=size_spread, seed=seed,
    )
    count, throughput = _fig6_one(
        app, devices, spec, functional, device_capacity,
        scale_dataset_with_devices,
    )
    return [count, throughput]


def fig6_linearity(results: Sequence[tuple[int, float]]) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of throughput vs device count."""
    xs = [n for n, _ in results]
    ys = [tp for _, tp in results]
    return linear_fit(xs, ys)


# ---------------------------------------------------------------------------
# Fig. 7 — aggregated host + CompStors performance (bzip2)
# ---------------------------------------------------------------------------

def run_fig7(
    device_counts: Sequence[int] = (1, 2, 4),
    spec: CorpusSpec = DEFAULT_FIG6_SPEC,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scenario: ScenarioConfig | None = None,
) -> list[dict]:
    """Host and device bzip2 throughput measured separately, then combined.

    Returns rows ``{"devices": n, "host_mb_s": .., "compstor_mb_s": ..,
    "aggregate_mb_s": ..}``.
    """
    if scenario is not None:
        spec = scenario.corpus
        functional = scenario.flash.store_data
        device_capacity = scenario.flash.capacity_bytes
    # Host throughput is independent of the device count: measure once.
    host_tp = _fig7_host(spec, functional, device_capacity, scenario)
    device_curve = run_fig6(
        app="bzip2", device_counts=device_counts, spec=spec,
        functional=functional, device_capacity=device_capacity,
        scenario=scenario,
    )
    return [
        {
            "devices": n,
            "host_mb_s": host_tp,
            "compstor_mb_s": tp,
            "aggregate_mb_s": host_tp + tp,
        }
        for n, tp in device_curve
    ]


def _fig7_host(
    spec: CorpusSpec,
    functional: bool,
    device_capacity: int,
    scenario: ScenarioConfig | None = None,
) -> float:
    """Host-only bzip2 throughput over the Fig. 7 corpus (MB/s)."""
    books = _corpus_for("bzip2", spec, functional)
    node = _build_node(
        1, functional, device_capacity, with_baseline_ssd=True, scenario=scenario
    )
    node.sim.run(
        node.sim.process(node.stage_corpus(books, compressed=False, include_host=True))
    )
    runner = HostOnlyRunner(node)

    def host_experiment() -> Generator:
        statuses, wall = yield from runner.run_many(
            [f"bzip2 {book.name}" for book in books]
        )
        return statuses, wall

    statuses, host_wall = node.sim.run(node.sim.process(host_experiment()))
    if any(s.code != 0 for s in statuses):
        raise RuntimeError("host bzip2 run failed")
    return throughput_mb_s(sum(b.plain_size for b in books), host_wall)


def fig7_host_cell(
    files: int = DEFAULT_FIG6_SPEC.files,
    mean_file_bytes: int = DEFAULT_FIG6_SPEC.mean_file_bytes,
    size_spread: float = DEFAULT_FIG6_SPEC.size_spread,
    seed: int = DEFAULT_FIG6_SPEC.seed,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scenario: dict | None = None,
) -> float:
    """The Fig. 7 host-only measurement as a parallel-runner work item."""
    if scenario is not None:
        config = scenario_from_dict(scenario)
        return _fig7_host(
            config.corpus, config.flash.store_data,
            config.flash.capacity_bytes, config,
        )
    spec = CorpusSpec(
        files=files, mean_file_bytes=mean_file_bytes,
        size_spread=size_spread, seed=seed,
    )
    return _fig7_host(spec, functional, device_capacity)


# ---------------------------------------------------------------------------
# Fig. 8 — energy per gigabyte, CompStor vs Xeon
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Fig8Row:
    app: str
    compstor_j_per_gb: float
    xeon_j_per_gb: float
    paper_compstor: float
    paper_xeon: float

    @property
    def ratio(self) -> float:
        return self.xeon_j_per_gb / self.compstor_j_per_gb

    @property
    def paper_ratio(self) -> float:
        return self.paper_xeon / self.paper_compstor


FIG8_APPS = ("gzip", "gunzip", "bzip2", "bunzip2", "grep", "gawk")

#: Enough parallel files to keep all 8 Xeon cores / 4 A53 cores busy, as in
#: the calibration's attribution model, and large enough that the fixed
#: spawn/minion overheads vanish against per-byte costs.
DEFAULT_FIG8_SPEC = CorpusSpec(files=8, mean_file_bytes=256 * 1024, size_spread=0.1)


def _device_energy_run(
    app: str,
    spec: CorpusSpec,
    functional: bool,
    capacity: int,
    scenario: ScenarioConfig | None = None,
) -> float:
    """CompStor-side J/GB (device-only attribution, per the calibration)."""
    books = _corpus_for(app, spec, functional)
    node = _build_node(1, functional, capacity, scenario=scenario)
    compressed = app in ("gunzip", "bunzip2")
    node.sim.run(node.sim.process(node.stage_corpus(books, compressed=compressed)))
    assignments = _stage_and_commands(node, books, app)
    mark = node.meter.snapshot()

    def experiment() -> Generator:
        responses = yield from node.client.gather(assignments)
        return responses

    node.sim.run(node.sim.process(experiment()))
    report = node.meter.window(mark)
    device_j = report.subset(["compstor0"])
    return device_j / (_input_bytes(books, app) / 1e9)


def _host_energy_run(
    app: str,
    spec: CorpusSpec,
    functional: bool,
    capacity: int,
    scenario: ScenarioConfig | None = None,
) -> float:
    """Xeon-side J/GB (whole-server attribution)."""
    books = _corpus_for(app, spec, functional)
    node = _build_node(
        1, functional, capacity, with_baseline_ssd=True, scenario=scenario
    )
    compressed = app in ("gunzip", "bunzip2")
    node.sim.run(
        node.sim.process(
            node.stage_corpus(books, compressed=compressed, include_host=True)
        )
    )
    runner = HostOnlyRunner(node)
    lines = []
    for book in books:
        target = book.compressed_name if compressed else book.name
        if app in ("grep", "gawk"):
            lines.append(f"{app} xylophone {target}")
        else:
            lines.append(f"{app} {target}")
    mark = node.meter.snapshot()

    def experiment() -> Generator:
        statuses, wall = yield from runner.run_many(lines)
        return statuses

    node.sim.run(node.sim.process(experiment()))
    report = node.meter.window(mark)
    server_j = report.subset(["host", "baseline-ssd", "fabric"])
    return server_j / (_input_bytes(books, app) / 1e9)


def _fig8_row(
    app: str,
    spec: CorpusSpec,
    functional: bool,
    device_capacity: int,
    scenario: ScenarioConfig | None = None,
) -> Fig8Row:
    paper_c, paper_x = PAPER_FIG8_J_PER_GB[app]
    return Fig8Row(
        app=app,
        compstor_j_per_gb=_device_energy_run(
            app, spec, functional, device_capacity, scenario
        ),
        xeon_j_per_gb=_host_energy_run(
            app, spec, functional, device_capacity, scenario
        ),
        paper_compstor=paper_c,
        paper_xeon=paper_x,
    )


def run_fig8(
    apps: Sequence[str] = FIG8_APPS,
    spec: CorpusSpec = DEFAULT_FIG8_SPEC,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scenario: ScenarioConfig | None = None,
) -> list[Fig8Row]:
    """Energy per GB of input for each app on both platforms."""
    if scenario is not None:
        spec = scenario.corpus
        functional = scenario.flash.store_data
        device_capacity = scenario.flash.capacity_bytes
    return [
        _fig8_row(app, spec, functional, device_capacity, scenario) for app in apps
    ]


def fig8_cell(
    app: str,
    files: int = DEFAULT_FIG8_SPEC.files,
    mean_file_bytes: int = DEFAULT_FIG8_SPEC.mean_file_bytes,
    size_spread: float = DEFAULT_FIG8_SPEC.size_spread,
    seed: int = DEFAULT_FIG8_SPEC.seed,
    functional: bool = True,
    device_capacity: int = 48 * 1024 * 1024,
    scenario: dict | None = None,
) -> dict:
    """One Fig. 8 app row as a JSON-encodable parallel-runner work item."""
    if scenario is not None:
        config = scenario_from_dict(scenario)
        row = _fig8_row(
            app, config.corpus, config.flash.store_data,
            config.flash.capacity_bytes, config,
        )
        return asdict(row)
    spec = CorpusSpec(
        files=files, mean_file_bytes=mean_file_bytes,
        size_spread=size_spread, seed=seed,
    )
    return asdict(_fig8_row(app, spec, functional, device_capacity))
