"""Fleet-level health rollup.

:func:`fleet_health` folds per-device
:class:`~repro.isps.telemetry.TelemetrySnapshot`s and SMART log pages
(``NvmeController.smart_log``) into one :class:`FleetHealth` summary — the
report an SRE dashboard would render for a rack of CompStor nodes:
minion-latency percentiles, per-node utilisation, grown-bad-block totals,
wear, thermal headroom.

The rollup is a pure function of one poll and simulation-agnostic:
:meth:`StorageFleet.health` feeds it the snapshots, each controller's SMART
page, the fleet's recovery counters and the client round-trip
:class:`~repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.obs.metrics import Histogram

__all__ = ["FleetHealth", "burn_rate_alerts", "fleet_health"]

#: Alert thresholds: saturated cores, hot devices, wear-out.
UTILIZATION_WARN = 0.95
TEMPERATURE_WARN_C = 85.0
PERCENTAGE_USED_WARN = 90


def burn_rate_alerts(
    events: Sequence[tuple[float, bool]],
    objective: float,
    windows: Sequence[Any],
) -> tuple[dict[str, Any], ...]:
    """Multi-window burn-rate evaluation over a ``(time, good)`` series.

    Burn rate is ``bad_fraction / (1 - objective)``: 1.0 consumes the error
    budget exactly at the sustainable pace.  For each window pair the alert
    *fires* at the first instant both the long and the short trailing
    window burn faster than the pair's threshold — the long window proves
    the problem is material, the short window proves it is still
    happening (so a recovered system stops alerting immediately).

    ``windows`` holds :class:`repro.config.schema.BurnWindowConfig`-shaped
    objects (``long_ms`` / ``short_ms`` / ``threshold``).  Returns one
    verdict dict per pair; all floats are plain Python floats so verdicts
    serialise into canonical-JSON scorecards.
    """
    if not 0.0 < objective < 1.0:
        raise ValueError("objective must be in (0, 1)")
    budget = 1.0 - objective
    times = [t for t, _ in events]
    bad_prefix = [0]
    for _, good in events:
        bad_prefix.append(bad_prefix[-1] + (0 if good else 1))

    def burn(start_index: int, end_index: int) -> float:
        total = end_index - start_index
        if total <= 0:
            return 0.0
        bad = bad_prefix[end_index] - bad_prefix[start_index]
        return (bad / total) / budget

    verdicts = []
    for window in windows:
        long_s = window.long_ms / 1e3
        short_s = window.short_ms / 1e3
        fired_at: float | None = None
        worst = 0.0
        for index, t in enumerate(times):
            end = index + 1
            long_burn = burn(bisect_left(times, t - long_s, 0, end), end)
            short_burn = burn(bisect_left(times, t - short_s, 0, end), end)
            joint = min(long_burn, short_burn)
            if joint > worst:
                worst = joint
            if fired_at is None and joint >= window.threshold:
                fired_at = t
        verdicts.append({
            "long_ms": float(window.long_ms),
            "short_ms": float(window.short_ms),
            "threshold": float(window.threshold),
            "fired": fired_at is not None,
            "fired_at_ms": None if fired_at is None else fired_at * 1e3,
            "worst": worst,
        })
    return tuple(verdicts)


@dataclass(frozen=True, slots=True)
class FleetHealth:
    """Point-in-time rollup across every device in a fleet.

    The device-derived fields default to zero: with every device down
    there is nothing to derive them from."""

    nodes: int
    devices: int
    time: float = 0.0
    active_minions: int = 0
    running_processes: int = 0
    mean_utilization: float = 0.0
    max_utilization: float = 0.0
    per_node_utilization: dict[int, float] = field(default_factory=dict)
    max_temperature_c: float = 0.0
    total_free_bytes: int = 0
    minion_latency_p50: float = 0.0
    minion_latency_p95: float = 0.0
    minion_latency_p99: float = 0.0
    minion_latency_samples: int = 0
    grown_bad_blocks: int = 0
    media_errors: int = 0
    max_percentage_used: int = 0
    max_write_amplification: float = 0.0
    gc_collections: int = 0
    #: Fault/recovery accounting (PR 2): how much trouble the fleet has
    #: absorbed, and where it is still degraded right now.
    watchdog_kills: int = 0
    minions_aborted: int = 0
    agent_restarts: int = 0
    retries: int = 0
    failovers: int = 0
    host_fallbacks: int = 0
    lost_minions: int = 0
    unreachable_devices: tuple[str, ...] = ()
    breakers_open: tuple[str, ...] = ()
    alerts: tuple[str, ...] = ()

    def rows(self) -> list[list[Any]]:
        """``[attribute, value]`` rows for table rendering."""
        return [
            ["nodes / devices", f"{self.nodes} / {self.devices}"],
            ["unreachable devices",
             ", ".join(self.unreachable_devices) if self.unreachable_devices else "none"],
            ["breakers open",
             ", ".join(self.breakers_open) if self.breakers_open else "none"],
            ["retries / failovers / host fallbacks",
             f"{self.retries} / {self.failovers} / {self.host_fallbacks}"],
            ["watchdog kills / aborted / agent restarts",
             f"{self.watchdog_kills} / {self.minions_aborted} / {self.agent_restarts}"],
            ["lost minions", self.lost_minions],
            ["active minions", self.active_minions],
            ["running processes", self.running_processes],
            ["utilization mean / max", f"{self.mean_utilization * 100:.1f}% / {self.max_utilization * 100:.1f}%"],
            ["max temperature", f"{self.max_temperature_c:.1f}C"],
            ["free bytes", self.total_free_bytes],
            ["minion latency p50/p95/p99",
             f"{self.minion_latency_p50 * 1e3:.2f} / {self.minion_latency_p95 * 1e3:.2f} / "
             f"{self.minion_latency_p99 * 1e3:.2f} ms (n={self.minion_latency_samples})"],
            ["grown bad blocks", self.grown_bad_blocks],
            ["media errors", self.media_errors],
            ["max % used", self.max_percentage_used],
            ["max write amplification", f"{self.max_write_amplification:.2f}"],
            ["GC collections", self.gc_collections],
            ["alerts", "; ".join(self.alerts) if self.alerts else "none"],
        ]


def fleet_health(
    devices: Sequence[tuple[int, str, Any, Mapping[str, Any]]],
    unreachable: Sequence[tuple[int, str]] = (),
    *,
    retries: int = 0,
    failovers: int = 0,
    host_fallbacks: int = 0,
    lost_minions: int = 0,
    breakers_open: tuple[str, ...] = (),
    latencies: Histogram | None = None,
) -> FleetHealth:
    """Roll one poll of a fleet up into a :class:`FleetHealth`.

    ``devices`` holds ``(node, device, snapshot, smart)`` for every device
    that answered: its :class:`~repro.isps.telemetry.TelemetrySnapshot` and
    its SMART page (``NvmeController.smart_log``).  ``unreachable`` names
    the ``(node, device)`` pairs that did not; they stay in the report (as
    alerts and in ``unreachable_devices``) instead of poisoning the poll.
    The recovery counters are the fleet's own; minion-latency percentiles
    come from the client round-trip histogram when one is given.

    Thresholds fire operator alerts (strings, not exceptions): hot devices,
    saturated cores, wear-out, grown bad blocks.
    """
    if not devices and not unreachable:
        raise ValueError("no device observations to summarise")
    tags = tuple(f"node{n}/{d}" for n, d in sorted(unreachable))
    fleet = dict(
        nodes=len({d[0] for d in devices} | {n for n, _ in unreachable}),
        devices=len(devices) + len(unreachable),
        retries=retries,
        failovers=failovers,
        host_fallbacks=host_fallbacks,
        lost_minions=lost_minions,
        unreachable_devices=tags,
        breakers_open=breakers_open,
    )
    alerts = [f"{tag}: unreachable" for tag in tags]
    alerts.extend(f"{device}: circuit breaker open" for device in breakers_open)
    if lost_minions:
        alerts.append(f"{lost_minions} minions lost (no surviving replica)")
    # Round trips are the client's record, not a device's: they stand even
    # when no device answers this poll.
    if latencies is not None:
        p50, p95, p99 = (latencies.aggregate_percentile(q) for q in (0.50, 0.95, 0.99))
        fleet.update(
            minion_latency_p50=p50,
            minion_latency_p95=p95,
            minion_latency_p99=p99,
            minion_latency_samples=latencies.aggregate_count(),
        )
    if not devices:
        # every device is down: still report, with zeros and loud alerts
        return FleetHealth(**fleet, alerts=tuple(alerts))
    snaps = [snap for _, _, snap, _ in devices]
    smarts = [smart for _, _, _, smart in devices]
    utilizations = [s.core_utilization for s in snaps]
    per_node: dict[int, list[float]] = defaultdict(list)
    for node, _, snap, _ in devices:
        per_node[node].append(snap.core_utilization)

    for node, device, snap, smart in devices:
        tag = f"node{node}/{device}"
        if snap.core_utilization >= UTILIZATION_WARN:
            alerts.append(f"{tag}: cores saturated ({snap.core_utilization * 100:.0f}%)")
        if snap.temperature_c >= TEMPERATURE_WARN_C:
            alerts.append(f"{tag}: hot ({snap.temperature_c:.0f}C)")
        if int(smart["percentage_used"]) >= PERCENTAGE_USED_WARN:
            alerts.append(f"{tag}: wear {smart['percentage_used']}% of rated life")
        if int(smart["bad_blocks"]) > 0:
            alerts.append(f"{tag}: {smart['bad_blocks']} grown bad blocks")

    return FleetHealth(
        **fleet,
        time=max(s.time for s in snaps),
        active_minions=sum(s.active_minions for s in snaps),
        running_processes=sum(s.running_processes for s in snaps),
        mean_utilization=sum(utilizations) / len(utilizations),
        max_utilization=max(utilizations),
        per_node_utilization={n: sum(v) / len(v) for n, v in sorted(per_node.items())},
        max_temperature_c=max(s.temperature_c for s in snaps),
        total_free_bytes=sum(s.free_bytes for s in snaps),
        grown_bad_blocks=sum(int(s["bad_blocks"]) for s in smarts),
        media_errors=sum(int(s["media_errors"]) for s in smarts),
        max_percentage_used=max(int(s["percentage_used"]) for s in smarts),
        max_write_amplification=max(float(s["write_amplification"]) for s in smarts),
        gc_collections=sum(int(s["gc_collections"]) for s in smarts),
        watchdog_kills=sum(s.watchdog_kills for s in snaps),
        minions_aborted=sum(s.minions_aborted for s in snaps),
        agent_restarts=sum(s.agent_restarts for s in snaps),
        alerts=tuple(alerts),
    )
