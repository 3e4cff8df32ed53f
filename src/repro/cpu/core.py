"""CPU cluster execution model.

A :class:`CpuCluster` is a pool of identical cores.  Work is expressed in
**cycles**; a core runs at ``freq_hz`` so ``cycles / freq_hz`` seconds of
core occupancy are consumed, and active energy is charged at
``p_active_core`` for that span.  Static/idle power is the power meter's
business (it knows wall-clock spans); the cluster only reports its
utilisation integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.sim import PriorityResource, Simulator

__all__ = ["CpuCluster", "CpuSpec"]


@dataclass(frozen=True, slots=True)
class CpuSpec:
    """Static description of a processor.

    ``ipc`` is the average sustained instructions-per-cycle used to convert
    instruction counts to cycles when a workload is specified that way.
    """

    name: str
    cores: int
    freq_hz: float
    ipc: float
    p_active_core: float  # watts per busy core
    p_idle: float  # watts, whole package at idle
    l1_kib: int = 32
    l2_kib: int = 1024
    dram_gib: int = 8

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.freq_hz <= 0 or self.ipc <= 0:
            raise ValueError("freq_hz and ipc must be positive")
        if self.p_active_core < 0 or self.p_idle < 0:
            raise ValueError("power terms must be non-negative")


class CpuCluster:
    """A pool of ``spec.cores`` cores with priority scheduling.

    ``execute(cycles)`` occupies one core for the computed time.  Long
    computations should be run in slices (see :class:`repro.cpu.scheduler.
    RunQueue`) so other work interleaves fairly.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: CpuSpec,
        name: str = "cpu",
        energy_sink: Callable[[str, float], None] | None = None,
    ):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.energy_sink = energy_sink
        self.cores = PriorityResource(sim, capacity=spec.cores, name=f"{name}.cores")
        self.cycles_executed = 0.0
        self.busy_seconds = 0.0
        self._freq_hz = spec.freq_hz

    def execute(self, cycles: float, priority: int = 0) -> Generator:
        """Run ``cycles`` of work on one core; returns elapsed seconds."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        duration = cycles / self._freq_hz
        start = self.sim.now
        with self.cores.request(priority=priority) as req:
            yield req
            yield self.sim.timeout(duration)
        self.cycles_executed += cycles
        self.busy_seconds += duration
        if self.energy_sink is not None and duration > 0:
            self.energy_sink(self.name, self.spec.p_active_core * duration)
        return self.sim.now - start

    def utilization(self) -> float:
        """Mean fraction of cores busy since t=0."""
        return self.cores.utilization()

    def temperature_c(self, ambient: float = 35.0, c_per_watt: float = 4.0) -> float:
        """Steady-state die temperature estimate from current utilisation.

        A simple thermal-resistance model: ambient plus idle dissipation
        plus utilisation-weighted active dissipation.  CompStor exposes this
        through status queries so clients can load-balance.
        """
        power = self.spec.p_idle + self.utilization() * self.spec.cores * self.spec.p_active_core
        return ambient + c_per_watt * power
