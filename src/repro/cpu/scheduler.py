"""Sliced execution: a fair run queue over a CPU cluster.

:class:`RunQueue` runs long computations as a sequence of quantum-sized
core acquisitions, so N runnable tasks on C cores each progress at roughly
C/N of a core — the behaviour an OS scheduler (CFS-style) provides, at the
granularity a discrete-event model needs.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu.core import CpuCluster
from repro.sim import Simulator

__all__ = ["RunQueue"]


class RunQueue:
    """Quantum-sliced scheduler facade over a :class:`CpuCluster`."""

    def __init__(self, sim: Simulator, cluster: CpuCluster, quantum: float = 4e-3):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.sim = sim
        self.cluster = cluster
        self.quantum = quantum
        # quantum and spec are fixed after construction
        self._quantum_cycles = quantum * cluster.spec.freq_hz

    def run_cycles(self, cycles: float, priority: int = 0) -> Generator:
        """Execute ``cycles`` in quantum slices; returns elapsed seconds."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        start = self.sim.now
        remaining = float(cycles)
        q = self._quantum_cycles
        while remaining > 0:
            slice_cycles = min(remaining, q)
            yield from self.cluster.execute(slice_cycles, priority=priority)
            remaining -= slice_cycles
        return self.sim.now - start
