"""Point-to-point PCIe link model.

A link is ``lanes`` wide at a generation's per-lane rate.  Each direction is
an independent capacity-1 resource (full duplex); a transfer occupies its
direction for ``overhead + bytes/effective_bw`` seconds.  TLP/DLLP protocol
overhead is folded into an efficiency factor (~87% for 256B payloads on
Gen3), matching how the paper quotes "16 lanes of PCIe = 16 GB/s".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator

from repro.sim import Resource, Simulator

__all__ = ["PcieGen", "PcieLink", "Direction"]


class PcieGen(Enum):
    """Per-lane raw rate in bytes/second (after line coding)."""

    GEN1 = 250e6
    GEN2 = 500e6
    GEN3 = 985e6
    GEN4 = 1969e6

    @property
    def lane_rate(self) -> float:
        return float(self.value)


class Direction(Enum):
    TX = "tx"  # host -> device (downstream writes)
    RX = "rx"  # device -> host (upstream reads/results)


_TX = Direction.TX
_RX = Direction.RX


@dataclass(frozen=True, slots=True)
class LinkParams:
    gen: PcieGen = PcieGen.GEN3
    lanes: int = 4
    efficiency: float = 0.87
    latency: float = 0.5e-6  # propagation + serdes + switch hop
    energy_per_byte: float = 5e-12  # PHY + SerDes energy

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.latency < 0 or self.energy_per_byte < 0:
            raise ValueError("latency/energy must be non-negative")

    @property
    def bandwidth(self) -> float:
        """Effective one-direction bandwidth, bytes/second."""
        return self.gen.lane_rate * self.lanes * self.efficiency


class PcieLink:
    """One full-duplex link with per-direction serialization.

    ``params`` is fixed after construction: the per-transfer latency,
    bandwidth and energy terms are read from it once, here, so a transfer
    evaluates no property chain of the enum-valued generation.
    """

    def __init__(
        self,
        sim: Simulator,
        params: LinkParams | None = None,
        name: str = "pcie",
        energy_sink: Callable[[str, float], None] | None = None,
        **param_overrides,
    ):
        self.sim = sim
        self.params = params or LinkParams(**param_overrides)
        self.name = name
        self.energy_sink = energy_sink
        self._latency = self.params.latency
        self._bandwidth = self.params.bandwidth
        self._energy_per_byte = self.params.energy_per_byte
        # One attribute per direction, chosen by identity: an Enum key would
        # cost a Python-level __hash__ per dict lookup.
        self._tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self._rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self._bytes_tx = 0
        self._bytes_rx = 0

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def bytes_moved(self) -> dict[Direction, int]:
        """Bytes moved so far, per direction."""
        return {_TX: self._bytes_tx, _RX: self._bytes_rx}

    def transfer(self, nbytes: int, direction: Direction) -> Generator:
        """Move ``nbytes`` in ``direction``; returns the elapsed seconds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if direction is _TX:
            channel = self._tx
        elif direction is _RX:
            channel = self._rx
        else:
            raise KeyError(direction)
        sim = self.sim
        start = sim.now
        with channel.request() as req:
            yield req
            yield sim.timeout(self._latency + nbytes / self._bandwidth)
        if direction is _TX:
            self._bytes_tx += nbytes
        else:
            self._bytes_rx += nbytes
        if self.energy_sink is not None and nbytes:
            self.energy_sink(self.name, nbytes * self._energy_per_byte)
        return sim.now - start

    def utilization(self, direction: Direction) -> float:
        return {_TX: self._tx, _RX: self._rx}[direction].utilization()
