"""The preset registry: named, pinned scenarios.

Each preset is one :class:`~repro.config.schema.ScenarioConfig` whose
digest is a checked-in golden (``tests/golden_config_digests.txt``): CI
recomputes every preset digest and diffs, so a preset can never drift
silently.  Derive sweep cells with ``--set`` overrides; the overridden
scenario's digest — printed in every scorecard header — identifies the
cell exactly.
"""

from __future__ import annotations

from repro.config.schema import (
    ClosedLoopConfig,
    FaultSpec,
    FaultsConfig,
    FlashConfig,
    FleetConfig,
    ObjstoreConfig,
    OverloadConfig,
    ScenarioConfig,
    ServiceConfig,
    TrafficConfig,
)
from repro.faults.retry import BreakerConfig, RetryPolicy
from repro.workloads import CorpusSpec

__all__ = ["PRESETS", "preset", "preset_names"]


def _paper_prototype() -> ScenarioConfig:
    """The default experimental stack: one node, four CompStors, the
    default corpus — the shape most unit experiments assume."""
    return ScenarioConfig(name="paper-prototype")


def _smoke() -> ScenarioConfig:
    """Seconds-of-wall-clock sanity run: one tiny device, two small books."""
    return ScenarioConfig(
        name="smoke",
        flash=FlashConfig(capacity_bytes=16 * 1024 * 1024),
        fleet=FleetConfig(nodes=1, devices_per_node=1),
        corpus=CorpusSpec(files=2, mean_file_bytes=24 * 1024, size_spread=0.2),
    )


def _fig6() -> ScenarioConfig:
    """The Fig. 6 weak-scaling cell, 48 MiB devices.  The corpus is the
    per-device share: enough files that every A53 core has parallel work."""
    return ScenarioConfig(
        name="fig6",
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(nodes=1, devices_per_node=4),
        corpus=CorpusSpec(files=8, mean_file_bytes=96 * 1024, size_spread=0.2),
    )


def _fig8_ablation() -> ScenarioConfig:
    """The Fig. 8 energy cell: one CompStor vs the host baseline drive, with
    enough files to keep all cores busy."""
    return ScenarioConfig(
        name="fig8-ablation",
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(nodes=1, devices_per_node=1, with_baseline_ssd=True),
        corpus=CorpusSpec(files=8, mean_file_bytes=256 * 1024, size_spread=0.1),
    )


def _chaos_drill() -> ScenarioConfig:
    """The pinned recovery drill: replicated 2x2 fleet with retries and
    breakers armed, one recoverable device kill plus a transient window."""
    return ScenarioConfig(
        name="chaos-drill",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=8, mean_file_bytes=32 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        faults=FaultsConfig(
            seed=0,
            events=(
                FaultSpec(kind="device-crash", ring_index=1, at_ms=0.2, duration_ms=2.0),
                FaultSpec(kind="transient", ring_index=2, at_ms=0.0, duration_ms=1.0, fraction=0.5),
            ),
        ),
    )


def _traffic_smoke() -> ScenarioConfig:
    """The pinned multi-tenant serving drill: the chaos-drill fleet (2x2,
    replicated, retries + breakers) under a short seeded Poisson stream
    drawn from a million-tenant population, with a transient-error window
    and a recoverable device kill landing mid-traffic."""
    return ScenarioConfig(
        name="traffic-smoke",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=8, mean_file_bytes=32 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        faults=FaultsConfig(
            seed=0,
            events=(
                FaultSpec(kind="transient", ring_index=1, at_ms=5.0,
                          duration_ms=10.0, fraction=0.5),
                FaultSpec(kind="device-crash", ring_index=2, at_ms=10.0,
                          duration_ms=15.0),
            ),
        ),
        service=ServiceConfig(queue_depth=32, concurrency=8),
        traffic=TrafficConfig(pattern="poisson", requests=160, rate=4000.0,
                              tenants=1_000_000, skew=1.5, seed=0),
    )


def _traffic_burst() -> ScenarioConfig:
    """The overload cell: bursty hot-tenant arrivals at 2x sustainable rate
    into two dispatch slots — sized so every mechanism fires visibly
    (queue-full *and* rate-limit sheds, SLO violations, Jain well below
    1.0), the regime where admission control and fair queuing earn their
    keep."""
    return ScenarioConfig(
        name="traffic-burst",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=8, mean_file_bytes=32 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        service=ServiceConfig(queue_depth=32, concurrency=2),
        traffic=TrafficConfig(pattern="bursty", requests=256, rate=8000.0,
                              tenants=2000, skew=8.0, seed=0,
                              burst_len=64, burst_factor=8.0),
    )


def _traffic_closedloop() -> ScenarioConfig:
    """Closed-loop serving with the full defense stack armed: sessions with
    think time and retries-on-shed over the replicated 2x2 fleet, CoDel +
    brownout admission, a retry budget, and the AIMD autoscaler."""
    return ScenarioConfig(
        name="traffic-closedloop",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=8, mean_file_bytes=32 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        service=ServiceConfig(queue_depth=32, concurrency=4),
        closed_loop=ClosedLoopConfig(
            sessions=48, duration_ms=60.0, think_ms=4.0, timeout_ms=12.0,
            max_retries=3, seed=0,
        ),
        overload=OverloadConfig(min_concurrency=4, max_concurrency=12,
                                aimd_low_ms=0.5, aimd_high_ms=4.0),
    )


def _metastable() -> ScenarioConfig:
    """The metastable-failure drill: sustained closed-loop load, then a
    transient fleet-wide limp window (firmware latency x12 for 40 ms)
    mid-run.  The trigger fills the dispatch queue past the point where
    sojourn exceeds the client timeout; from there abandoned-but-served
    (stale) work plus the retry storm keeps the queue full *after* the
    fault clears — the self-sustaining degraded state.  With defenses
    armed the drill asserts goodput returns to ``recovery_bar`` of the
    pre-trigger rate within ``recovery_ms`` of the fault clearing; the
    defenses-off counterfactual (same seed, same trigger) demonstrates
    the sustained degradation the defenses prevent.

    Load shape matters for bistability: think time (40 ms) well above the
    client timeout (12 ms) keeps healthy demand under fleet capacity
    while letting 56 abandon-retry sessions generate admitted pressure
    above it — both attractors exist, and the trigger picks."""
    return ScenarioConfig(
        name="metastable",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=8, mean_file_bytes=32 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        faults=FaultsConfig(
            seed=0,
            events=tuple(
                FaultSpec(kind="limp", ring_index=ring, at_ms=60.0,
                          duration_ms=40.0, factor=12.0)
                for ring in range(4)
            ),
        ),
        service=ServiceConfig(queue_depth=32, concurrency=4),
        closed_loop=ClosedLoopConfig(
            sessions=56, duration_ms=280.0, think_ms=40.0, timeout_ms=12.0,
            max_retries=3, seed=0,
            goodput_window_ms=10.0, recovery_ms=60.0, recovery_bar=0.9,
        ),
        overload=OverloadConfig(min_concurrency=4, max_concurrency=16,
                                aimd_low_ms=0.5, aimd_high_ms=4.0),
    )


def _traffic_soak() -> ScenarioConfig:
    """The 100k-request deterministic soak: a replicated 4x4 fleet serving
    a seeded Poisson stream long enough to shake out slow state leaks
    (queue residue, id drift, horizon creep) that short drills never see.
    No faults — the soak isolates the steady-state serving path, so any
    digest drift between runs or worker counts is a determinism bug, not
    recovery noise."""
    return ScenarioConfig(
        name="traffic-soak",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=4, devices_per_node=4, replicas=2),
        corpus=CorpusSpec(files=16, mean_file_bytes=16 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        service=ServiceConfig(queue_depth=64, concurrency=16),
        traffic=TrafficConfig(pattern="poisson", requests=100_000, rate=40_000.0,
                              tenants=1_000_000, skew=1.2, seed=0),
    )


def _objstore_smoke() -> ScenarioConfig:
    """The pinned dedup-store drill: the replicated 2x2 fleet ingesting a
    half-duplicate object batch through in-situ ``chunksum`` minions, with
    a recoverable device crash landing mid-ingest and a second one during
    the GC pass — the crash-recovery invariant (no committed chunk lost)
    is exactly what this preset's scorecard digest pins."""
    return ScenarioConfig(
        name="objstore-smoke",
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2, replicas=2),
        corpus=CorpusSpec(files=4, mean_file_bytes=16 * 1024, seed=0),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
        faults=FaultsConfig(
            seed=0,
            events=(
                # mid-ingest (the batch takes ~40 ms to land)
                FaultSpec(kind="device-crash", ring_index=1, at_ms=0.5,
                          duration_ms=4.0),
                # mid-GC: the drill schedules its first sweep inside this
                # window, so reclamation runs with a device down
                FaultSpec(kind="device-crash", ring_index=3, at_ms=55.0,
                          duration_ms=20.0),
            ),
        ),
        objstore=ObjstoreConfig(objects=24, mean_object_bytes=24 * 1024,
                                dedup_ratio=0.5, replicas=2, seed=0),
    )


PRESETS = {
    "paper-prototype": _paper_prototype,
    "smoke": _smoke,
    "fig6": _fig6,
    "fig8-ablation": _fig8_ablation,
    "chaos-drill": _chaos_drill,
    "traffic-smoke": _traffic_smoke,
    "traffic-burst": _traffic_burst,
    "traffic-closedloop": _traffic_closedloop,
    "traffic-soak": _traffic_soak,
    "metastable": _metastable,
    "objstore-smoke": _objstore_smoke,
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def preset(name: str, overrides: tuple[str, ...] = ()) -> ScenarioConfig:
    """A fresh instance of the named preset, with ``--set`` overrides applied."""
    try:
        build = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; use {', '.join(PRESETS)}"
        ) from None
    config = build()
    if overrides:
        from repro.config.overrides import apply_overrides

        config = apply_overrides(config, overrides)
    return config
