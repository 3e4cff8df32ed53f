"""The energy meter.

Two kinds of power are tracked:

- **active energy**: charged event-by-event by components through their
  ``energy_sink`` callback (flash ops, CPU busy time, PCIe transfers, ECC);
- **static power**: components registered with a constant wattage (package
  idle, platform, DRAM, controller logic) integrate over wall-clock
  simulation time.

The paper computes energy as average power x elapsed time from a wall
meter; :meth:`PowerMeter.window` reproduces exactly that measurement
protocol: snapshot, run the workload, diff.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.sim import Simulator

__all__ = ["EnergyReport", "PowerMeter"]


@dataclass(frozen=True, slots=True)
class EnergyReport:
    """Energy measured over a window."""

    seconds: float
    active_j: dict[str, float]
    static_j: dict[str, float]

    @property
    def total_j(self) -> float:
        return sum(self.active_j.values()) + sum(self.static_j.values())

    def subset(self, components: Iterable[str]) -> float:
        """Total energy of the named components (prefix match)."""
        keys = tuple(components)
        total = 0.0
        for name, joules in list(self.active_j.items()) + list(self.static_j.items()):
            if any(name.startswith(k) for k in keys):
                total += joules
        return total


class PowerMeter:
    """Accumulates active energy and integrates static power."""

    def __init__(self, sim: Simulator, metrics: MetricsRegistry | None = None):
        self.sim = sim
        self._active: defaultdict[str, float] = defaultdict(float)
        self._static: dict[str, float] = {}
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.metrics.counter_view(
            "power.energy_joules", "active energy charged per component",
            lambda: self._active, keys=("component",),
        )

    # -- wiring -----------------------------------------------------------
    def sink(self, component: str, joules: float) -> None:
        """``energy_sink`` callback handed to components."""
        if joules < 0:
            raise ValueError("joules must be non-negative")
        self._active[component] += joules

    def register_static(self, component: str, watts: float) -> None:
        """Declare a constant power draw (idle/uncore/platform)."""
        if watts < 0:
            raise ValueError("watts must be non-negative")
        if component in self._static:
            raise ValueError(f"static component {component!r} already registered")
        self._static[component] = watts

    # -- measurement -----------------------------------------------------------
    def snapshot(self) -> tuple[float, dict[str, float]]:
        """Opaque mark for :meth:`window`."""
        return self.sim.now, dict(self._active)

    def window(self, mark: tuple[float, dict[str, float]]) -> EnergyReport:
        """Energy between ``mark`` (from :meth:`snapshot`) and now."""
        t0, active0 = mark
        seconds = self.sim.now - t0
        if seconds < 0:
            raise ValueError("mark is in the future")
        active = {
            name: joules - active0.get(name, 0.0)
            for name, joules in self._active.items()
            if joules - active0.get(name, 0.0) > 0
        }
        static = {name: watts * seconds for name, watts in self._static.items()}
        return EnergyReport(seconds=seconds, active_j=active, static_j=static)
