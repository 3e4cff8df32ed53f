"""One-shot validation: does this build still reproduce the paper?

Each published claim is graded by a self-contained, seeded experiment (its
own simulators, its own corpus).  :func:`run_claim` is the parallel-runner
target for one of them; ``python -m repro validate`` (the ``validate``
family in :mod:`repro.families`) runs all of them, merges the graded claims
in canonical paper order no matter how many workers ran them, and prints
the scorecard: the certificate that this build reproduces the paper.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.analysis.figures import (
    fig6_linearity,
    run_fig1,
    run_fig6,
    run_fig7,
    run_fig8,
)
from repro.baselines import SYSTEMS
from repro.config import ScenarioConfig, preset, scenario_from_dict

__all__ = [
    "CLAIM_ORDER",
    "Claim",
    "run_claim",
]

#: Fig. 8 absolute values must land within this fraction of the paper's bars.
FIG8_TOLERANCE = 0.40


@dataclass(frozen=True, slots=True)
class Claim:
    """One graded claim from the paper."""

    source: str  # "Fig. 1", "Table I", ...
    claim: str
    measured: str
    passed: bool


def _device_counts(quick: bool, scenario: ScenarioConfig) -> tuple[int, ...]:
    """``quick=True`` trims device counts for sub-minute wall time.

    The sweep is capped at the scenario's ``fleet.devices_per_node``, so
    ``--set fleet.devices_per_node=2`` genuinely shrinks the experiment.
    """
    counts = (1, 2) if quick else (1, 2, 4)
    capped = tuple(n for n in counts if n <= scenario.fleet.devices_per_node)
    return capped or (scenario.fleet.devices_per_node,)


def claim_fig1(quick: bool, scenario: ScenarioConfig) -> Claim:
    rows = run_fig1((1, 64))
    at64 = next(r for r in rows if r.ssd_count == 64)
    return Claim(
        "Fig. 1",
        "aggregate media bandwidth at 64 SSDs ~545 GB/s vs ~16 GB/s host PCIe",
        f"{at64.media_bandwidth_bps / 1e9:.0f} GB/s media, "
        f"{at64.host_ingest_bps / 1e9:.1f} GB/s ingest ({at64.mismatch:.0f}x)",
        abs(at64.media_bandwidth_bps - 545.8e9) / 545.8e9 < 0.02 and at64.mismatch > 30,
    )


def claim_table1(quick: bool, scenario: ScenarioConfig) -> Claim:
    full = [s.system for s in SYSTEMS if s.all_features]
    return Claim(
        "Table I",
        "CompStor is the only full-feature in-storage computation system",
        f"full-feature rows: {full}",
        full == ["CompStor"],
    )


def claim_fig6(quick: bool, scenario: ScenarioConfig) -> Claim:
    results = run_fig6(
        app="grep", device_counts=_device_counts(quick, scenario), scenario=scenario
    )
    slope, _, r2 = fig6_linearity(results)
    return Claim(
        "Fig. 6",
        "performance scales linearly with the number of CompStors",
        f"grep slope {slope:.1f} MB/s/device, r^2={r2:.4f}",
        r2 > 0.98 and slope > 0,
    )


def claim_fig7(quick: bool, scenario: ScenarioConfig) -> Claim:
    fig7 = run_fig7(
        device_counts=_device_counts(quick, scenario), scenario=scenario
    )
    device_tp = fig7[0]["compstor_mb_s"]
    host_tp = fig7[0]["host_mb_s"]
    aggregate_monotone = all(
        a["aggregate_mb_s"] < b["aggregate_mb_s"] for a, b in zip(fig7, fig7[1:])
    )
    return Claim(
        "Fig. 7",
        "one CompStor is below the Xeon; aggregate grows with devices",
        f"device {device_tp:.1f} vs host {host_tp:.1f} MB/s; aggregate monotone: "
        f"{aggregate_monotone}",
        device_tp < host_tp and aggregate_monotone,
    )


def claim_fig8(quick: bool, scenario: ScenarioConfig) -> Claim:
    # Fig. 8's grading tolerances are calibrated against its own corpus:
    # keep that pinned even when the rest of the scenario varies.
    scenario = replace(scenario, corpus=preset("fig8-ablation").corpus)
    fig8 = run_fig8(scenario=scenario)
    wins = all(r.compstor_j_per_gb < r.xeon_j_per_gb for r in fig8)
    within = all(
        abs(r.compstor_j_per_gb - r.paper_compstor) / r.paper_compstor < FIG8_TOLERANCE
        and abs(r.xeon_j_per_gb - r.paper_xeon) / r.paper_xeon < FIG8_TOLERANCE
        for r in fig8
    )
    best = max(r.ratio for r in fig8)
    return Claim(
        "Fig. 8",
        "CompStor wins energy/GB on all six apps, up to ~3X",
        f"wins all: {wins}; within {FIG8_TOLERANCE:.0%} of paper bars: {within}; "
        f"best ratio {best:.2f}x",
        wins and within and best >= 2.8,
    )


#: Claim functions in canonical (paper) order — the merge order of the
#: scorecard regardless of which worker finishes first.
CLAIMS = {
    "fig1": claim_fig1,
    "table1": claim_table1,
    "fig6": claim_fig6,
    "fig7": claim_fig7,
    "fig8": claim_fig8,
}
CLAIM_ORDER: tuple[str, ...] = tuple(CLAIMS)


def run_claim(name: str, scenario: dict, quick: bool = False) -> dict:
    """Grade one claim; returns a JSON-encodable payload (worker target)."""
    config = scenario_from_dict(scenario)
    return asdict(CLAIMS[name](quick=quick, scenario=config))

