"""Experiment runners that regenerate the paper's figures.

Each ``run_figN`` function builds fresh systems from one
:class:`~repro.config.ScenarioConfig`, drives the measurement protocol the
paper describes, and returns plain data that the benches assert on and the
examples print.  The default scenarios (the ``fig6`` and ``fig8-ablation``
presets) are functional-mode scales that finish in seconds of wall clock;
``--set corpus.files=N`` (or ``--set flash.store_data=false``) overrides
approach paper scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Generator, Sequence

from repro.analysis.calibration import PAPER_FIG8_J_PER_GB
from repro.analysis.experiments import linear_fit, throughput_mb_s
from repro.baselines.hostonly import HostOnlyRunner
from repro.cluster.node import StorageNode
from repro.config import ScenarioConfig, build_node, preset, scenario_from_dict
from repro.flash import FlashArray
from repro.pcie import PcieFabric
from repro.proto.entities import Command
from repro.sim import Simulator
from repro.workloads import BookCorpus

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
]


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
# Shared measurement passes (Figs. 6-8 and the backend comparison)
# ---------------------------------------------------------------------------

#: Apps whose input is staged compressed: they read ``.gz`` / ``.bz2`` files.
_COMPRESSED_INPUT = ("gunzip", "bunzip2")


def _command_line(app: str, book) -> str:
    """The command line ``app`` runs over one book, in-situ or host-side."""
    target = book.compressed_name if app in _COMPRESSED_INPUT else book.name
    if app in ("grep", "gawk"):
        return f"{app} xylophone {target}"
    return f"{app} {target}"


def _corpus_for(app: str, config: ScenarioConfig):
    """The scenario's corpus, generated in the on-device form ``app`` reads."""
    spec = config.corpus
    if app == "gunzip":
        spec = replace(spec, compressions=("gzip",))
    elif app == "bunzip2":
        spec = replace(spec, compressions=("bzip2",))
    return BookCorpus(spec).generate(functional=config.flash.store_data)


def _build_node(
    config: ScenarioConfig, devices: int, with_baseline_ssd: bool = False
) -> StorageNode:
    """The scenario's node with ``devices`` CompStors, plus the host's
    baseline drive when ``with_baseline_ssd``."""
    fleet = replace(
        config.fleet, devices_per_node=devices, with_baseline_ssd=with_baseline_ssd
    )
    return build_node(replace(config, fleet=fleet))


def _input_bytes(books, app: str) -> int:
    if app in _COMPRESSED_INPUT:
        return sum(b.compressed_size for b in books)
    return sum(b.plain_size for b in books)


@dataclass(frozen=True, slots=True)
class _Pass:
    """One measured pass over a staged corpus."""

    node: StorageNode
    books: list
    mark: tuple  # the node's energy mark, taken just before the work started
    seconds: float  # simulated time the work took
    results: list  # minion responses (device side) or exit statuses (host side)


def _device_pass(config: ScenarioConfig, app: str, devices: int) -> _Pass:
    """Stage the scenario's corpus round-robin on a ``devices``-CompStor
    node, then run one ``app`` minion per book, all concurrently.

    Raises if a minion failed outright; an app's own non-zero exit
    (``app-error``) is a result, not a failure.
    """
    books = _corpus_for(app, config)
    node = _build_node(config, devices)
    compressed = app in _COMPRESSED_INPUT
    node.sim.run(node.sim.process(node.stage_corpus(books, compressed=compressed)))
    assignments = [
        (device, Command(command_line=_command_line(app, book)))
        for device, part in node.device_books(books).items()
        for book in part
    ]
    mark = node.meter.snapshot()

    def experiment() -> Generator:
        start = node.sim.now
        responses = yield from node.client.gather(assignments)
        return responses, node.sim.now - start

    responses, seconds = node.sim.run(node.sim.process(experiment()))
    bad = [r for r in responses if r is None or r.status.value not in ("ok", "app-error")]
    if bad:
        raise RuntimeError(
            f"{app} on {devices} CompStor(s) failed on {len(bad)} minions"
        )
    return _Pass(node, books, mark, seconds, responses)


def _host_pass(config: ScenarioConfig, app: str) -> _Pass:
    """Stage the scenario's corpus on a one-CompStor node and on its host's
    baseline drive, then run one ``app`` process per book on the host, all
    concurrently.  Raises if any process exits non-zero."""
    books = _corpus_for(app, config)
    node = _build_node(config, 1, with_baseline_ssd=True)
    compressed = app in _COMPRESSED_INPUT
    node.sim.run(
        node.sim.process(
            node.stage_corpus(books, compressed=compressed, include_host=True)
        )
    )
    runner = HostOnlyRunner(node)
    lines = [_command_line(app, book) for book in books]
    mark = node.meter.snapshot()

    def experiment() -> Generator:
        return (yield from runner.run_many(lines))

    statuses, seconds = node.sim.run(node.sim.process(experiment()))
    if any(s.code != 0 for s in statuses):
        raise RuntimeError(f"host {app} run failed")
    return _Pass(node, books, mark, seconds, statuses)


# ---------------------------------------------------------------------------
# Fig. 6 — performance scales linearly with the number of CompStors
# ---------------------------------------------------------------------------

def run_fig6(
    app: str = "grep",
    device_counts: Sequence[int] = (1, 2, 4),
    scale_dataset_with_devices: bool = True,
    scenario: ScenarioConfig = preset("fig6"),
) -> list[tuple[int, float]]:
    """Throughput (MB/s of input scanned) vs number of CompStors.

    Follows the paper's weak-scaling methodology ("a fixed amount of input
    data per each CompStor"): the file count grows with the device count, so
    per-device work is constant and aggregate throughput scales with N.
    ``scenario.corpus`` is the per-device share.  Returns
    ``[(n_devices, throughput_mb_s), ...]``.
    """
    return [
        _fig6_one(app, count, scenario, scale_dataset_with_devices)
        for count in device_counts
    ]


def _fig6_one(
    app: str,
    count: int,
    config: ScenarioConfig,
    scale_dataset_with_devices: bool,
) -> tuple[int, float]:
    """One Fig. 6 cell: throughput of ``app`` on a ``count``-device node."""
    if scale_dataset_with_devices:
        corpus = replace(config.corpus, files=config.corpus.files * count)
        config = replace(config, corpus=corpus)
    run = _device_pass(config, app, count)
    return count, throughput_mb_s(_input_bytes(run.books, app), run.seconds)


def fig6_cell(
    app: str,
    devices: int,
    scenario: dict,
    scale_dataset_with_devices: bool = True,
) -> list:
    """One Fig. 6 cell as a JSON-encodable parallel-runner work item.

    ``scenario`` is a :class:`~repro.config.ScenarioConfig` as a plain dict
    (the form job kwargs travel in, so it participates in the cache key).
    """
    config = scenario_from_dict(scenario)
    return list(_fig6_one(app, devices, config, scale_dataset_with_devices))


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
    scenario: ScenarioConfig = preset("fig6"),
) -> list[dict]:
    """Host and device bzip2 throughput measured separately, then combined.

    Returns rows ``{"devices": n, "host_mb_s": .., "compstor_mb_s": ..,
    "aggregate_mb_s": ..}``.
    """
    # Host throughput is independent of the device count: measure once.
    host_tp = _fig7_host(scenario)
    device_curve = run_fig6(
        app="bzip2", device_counts=device_counts, scenario=scenario
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


def _fig7_host(config: ScenarioConfig) -> float:
    """Host-only bzip2 throughput over the Fig. 7 corpus (MB/s)."""
    run = _host_pass(config, "bzip2")
    return throughput_mb_s(_input_bytes(run.books, "bzip2"), run.seconds)


def fig7_host_cell(scenario: dict) -> float:
    """The Fig. 7 host-only measurement as a parallel-runner work item."""
    return _fig7_host(scenario_from_dict(scenario))


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


def _device_energy_run(app: str, config: ScenarioConfig) -> float:
    """CompStor-side J/GB (device-only attribution, per the calibration)."""
    run = _device_pass(config, app, 1)
    device_j = run.node.meter.window(run.mark).subset(["compstor0"])
    return device_j / (_input_bytes(run.books, app) / 1e9)


def _host_energy_run(app: str, config: ScenarioConfig) -> float:
    """Xeon-side J/GB (whole-server attribution)."""
    run = _host_pass(config, app)
    server_j = run.node.meter.window(run.mark).subset(["host", "baseline-ssd", "fabric"])
    return server_j / (_input_bytes(run.books, app) / 1e9)


def _fig8_row(app: str, config: ScenarioConfig) -> Fig8Row:
    paper_c, paper_x = PAPER_FIG8_J_PER_GB[app]
    return Fig8Row(
        app=app,
        compstor_j_per_gb=_device_energy_run(app, config),
        xeon_j_per_gb=_host_energy_run(app, config),
        paper_compstor=paper_c,
        paper_xeon=paper_x,
    )


def run_fig8(
    apps: Sequence[str] = FIG8_APPS,
    scenario: ScenarioConfig = preset("fig8-ablation"),
) -> list[Fig8Row]:
    """Energy per GB of input for each app on both platforms.

    The ``fig8-ablation`` corpus has enough parallel files to keep all 8
    Xeon cores / 4 A53 cores busy, as in the calibration's attribution
    model, and files large enough that the fixed spawn/minion overheads
    vanish against per-byte costs.
    """
    return [_fig8_row(app, scenario) for app in apps]


def fig8_cell(app: str, scenario: dict) -> dict:
    """One Fig. 8 app row as a JSON-encodable parallel-runner work item."""
    return asdict(_fig8_row(app, scenario_from_dict(scenario)))
