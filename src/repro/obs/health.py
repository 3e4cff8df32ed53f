"""Fleet-level health aggregation.

Folds per-device :class:`~repro.isps.telemetry.TelemetrySnapshot`s and SMART
log pages (``NvmeController.smart_log``) into one :class:`FleetHealth`
summary — the report an SRE dashboard would render for a rack of CompStor
nodes: minion-latency percentiles, per-node utilisation, grown-bad-block
totals, wear, thermal headroom.

The aggregator is deliberately pull-based and simulation-agnostic: feed it
snapshots from :meth:`StorageFleet.telemetry`, SMART dicts from each
controller, and minion latencies from responses (or an enabled
:class:`~repro.obs.metrics.Histogram`), then ask for :meth:`summary`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.metrics import _exact_quantile

__all__ = ["FleetHealth", "HealthAggregator", "burn_rate_alerts"]


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

    @property
    def degraded(self) -> bool:
        """Is any device currently unreachable or fenced off by a breaker?"""
        return bool(self.unreachable_devices or self.breakers_open)

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


@dataclass
class _DeviceHealth:
    node: int
    device: str
    snapshot: Any
    smart: Mapping[str, Any] | None = None


class HealthAggregator:
    """Accumulates device observations; :meth:`summary` rolls them up.

    Thresholds fire operator alerts (strings, not exceptions): hot devices,
    saturated cores, wear-out, grown bad blocks.
    """

    def __init__(
        self,
        utilization_warn: float = 0.95,
        temperature_warn_c: float = 85.0,
        percentage_used_warn: int = 90,
    ):
        self.utilization_warn = utilization_warn
        self.temperature_warn_c = temperature_warn_c
        self.percentage_used_warn = percentage_used_warn
        self._devices: dict[tuple[int, str], _DeviceHealth] = {}
        self._latencies: list[float] = []
        self._histogram_percentiles: tuple[float, float, float] | None = None
        self._histogram_samples = 0
        self._unreachable: dict[tuple[int, str], None] = {}
        self._recovery: dict[str, int] = {
            "retries": 0, "failovers": 0, "host_fallbacks": 0, "lost_minions": 0
        }
        self._breakers_open: tuple[str, ...] = ()

    # -- feeding ------------------------------------------------------------
    def observe_device(
        self,
        node: int,
        device: str,
        snapshot: Any,
        smart: Mapping[str, Any] | None = None,
    ) -> None:
        """Record one device's telemetry (+ optional SMART page).

        Re-observing a device replaces its previous observation, so one
        aggregator can be polled across a run.
        """
        self._devices[(node, device)] = _DeviceHealth(node, device, snapshot, smart)
        self._unreachable.pop((node, device), None)

    def observe_unreachable(self, node: int, device: str) -> None:
        """Record a device that did not answer its telemetry query.

        Unreachable devices stay in the report (as alerts and in
        ``unreachable_devices``) instead of poisoning the whole poll —
        a degraded fleet still has health.
        """
        self._unreachable[(node, device)] = None
        self._devices.pop((node, device), None)

    def observe_recovery(
        self,
        retries: int = 0,
        failovers: int = 0,
        host_fallbacks: int = 0,
        lost_minions: int = 0,
        breakers_open: tuple[str, ...] = (),
    ) -> None:
        """Fold fleet-level recovery counters into the next summary."""
        self._recovery["retries"] = retries
        self._recovery["failovers"] = failovers
        self._recovery["host_fallbacks"] = host_fallbacks
        self._recovery["lost_minions"] = lost_minions
        self._breakers_open = tuple(breakers_open)

    def observe_minion_latencies(self, seconds: Iterable[float]) -> None:
        self._latencies.extend(seconds)

    def observe_latency_histogram(self, histogram: Any) -> None:
        """Take percentiles from a :class:`repro.obs.metrics.Histogram`
        (used when raw per-minion latencies were not retained)."""
        self._histogram_percentiles = (
            histogram.aggregate_percentile(0.50),
            histogram.aggregate_percentile(0.95),
            histogram.aggregate_percentile(0.99),
        )
        self._histogram_samples = sum(
            state.count for state in histogram._values.values()
        )

    # -- rollup -------------------------------------------------------------
    def summary(self) -> FleetHealth:
        if not self._devices and not self._unreachable:
            raise ValueError("no device observations to summarise")
        nodes = len({n for n, _ in self._devices} | {n for n, _ in self._unreachable})
        devices = len(self._devices) + len(self._unreachable)
        unreachable = tuple(f"node{n}/{d}" for n, d in sorted(self._unreachable))
        if not self._devices:
            # every device is down: still report, with zeros and loud alerts
            return FleetHealth(
                nodes=nodes,
                devices=devices,
                retries=self._recovery["retries"],
                failovers=self._recovery["failovers"],
                host_fallbacks=self._recovery["host_fallbacks"],
                lost_minions=self._recovery["lost_minions"],
                unreachable_devices=unreachable,
                breakers_open=self._breakers_open,
                alerts=tuple(f"{tag}: unreachable" for tag in unreachable),
            )
        snaps = list(self._devices.values())
        utilizations = [d.snapshot.core_utilization for d in snaps]
        per_node: dict[int, list[float]] = defaultdict(list)
        for d in snaps:
            per_node[d.node].append(d.snapshot.core_utilization)
        node_util = {n: sum(v) / len(v) for n, v in sorted(per_node.items())}

        smarts = [d.smart for d in snaps if d.smart is not None]
        bad_blocks = sum(int(s.get("bad_blocks", 0)) for s in smarts)
        media_errors = sum(int(s.get("media_errors", 0)) for s in smarts)
        gc_collections = sum(int(s.get("gc_collections", 0)) for s in smarts)
        pct_used = max((int(s.get("percentage_used", 0)) for s in smarts), default=0)
        max_wa = max((float(s.get("write_amplification", 0.0)) for s in smarts), default=0.0)

        if self._latencies:
            p50, p95, p99 = (
                _exact_quantile(self._latencies, q) for q in (0.50, 0.95, 0.99)
            )
            n_samples = len(self._latencies)
        elif self._histogram_percentiles is not None:
            p50, p95, p99 = self._histogram_percentiles
            n_samples = self._histogram_samples
        else:
            p50 = p95 = p99 = 0.0
            n_samples = 0

        max_temp = max(d.snapshot.temperature_c for d in snaps)
        alerts: list[str] = [f"{tag}: unreachable" for tag in unreachable]
        for device in self._breakers_open:
            alerts.append(f"{device}: circuit breaker open")
        if self._recovery["lost_minions"]:
            alerts.append(f"{self._recovery['lost_minions']} minions lost (no surviving replica)")
        for d in snaps:
            tag = f"node{d.node}/{d.device}"
            if d.snapshot.core_utilization >= self.utilization_warn:
                alerts.append(f"{tag}: cores saturated ({d.snapshot.core_utilization * 100:.0f}%)")
            if d.snapshot.temperature_c >= self.temperature_warn_c:
                alerts.append(f"{tag}: hot ({d.snapshot.temperature_c:.0f}C)")
            if d.smart and int(d.smart.get("percentage_used", 0)) >= self.percentage_used_warn:
                alerts.append(f"{tag}: wear {d.smart['percentage_used']}% of rated life")
            if d.smart and int(d.smart.get("bad_blocks", 0)) > 0:
                alerts.append(f"{tag}: {d.smart['bad_blocks']} grown bad blocks")

        return FleetHealth(
            time=max(d.snapshot.time for d in snaps),
            nodes=nodes,
            devices=devices,
            active_minions=sum(d.snapshot.active_minions for d in snaps),
            running_processes=sum(d.snapshot.running_processes for d in snaps),
            mean_utilization=sum(utilizations) / len(utilizations),
            max_utilization=max(utilizations),
            per_node_utilization=node_util,
            max_temperature_c=max_temp,
            total_free_bytes=sum(d.snapshot.free_bytes for d in snaps),
            minion_latency_p50=p50,
            minion_latency_p95=p95,
            minion_latency_p99=p99,
            minion_latency_samples=n_samples,
            grown_bad_blocks=bad_blocks,
            media_errors=media_errors,
            max_percentage_used=pct_used,
            max_write_amplification=max_wa,
            gc_collections=gc_collections,
            watchdog_kills=sum(getattr(d.snapshot, "watchdog_kills", 0) for d in snaps),
            minions_aborted=sum(getattr(d.snapshot, "minions_aborted", 0) for d in snaps),
            agent_restarts=sum(getattr(d.snapshot, "agent_restarts", 0) for d in snaps),
            retries=self._recovery["retries"],
            failovers=self._recovery["failovers"],
            host_fallbacks=self._recovery["host_fallbacks"],
            lost_minions=self._recovery["lost_minions"],
            unreachable_devices=unreachable,
            breakers_open=self._breakers_open,
            alerts=tuple(alerts),
        )
