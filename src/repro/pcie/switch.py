"""PCIe switch + root complex topology.

``PcieFabric`` assembles the paper's Fig. 2 arrangement::

    host CPU == root complex ==(uplink x16)== switch ==(x4)== endpoint 0
                                                    ==(x4)== endpoint 1
                                                    ...

A host<->endpoint transfer crosses that endpoint's downlink *and* the shared
uplink, so per-endpoint bandwidth is capped by its own link while aggregate
traffic is capped by the uplink — the bandwidth funnel of Fig. 1.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.pcie.link import Direction, LinkParams, PcieGen, PcieLink
from repro.sim import Simulator

__all__ = ["PcieFabric", "PciePort", "PcieSwitch", "RootComplex"]


class PciePort:
    """An endpoint attachment point: the downlink plus a route upward."""

    def __init__(self, fabric: "PcieFabric", index: int, downlink: PcieLink):
        self.fabric = fabric
        self.index = index
        self.downlink = downlink

    def to_host(self, nbytes: int) -> Generator:
        """Endpoint -> host DMA (upstream)."""
        yield from self.downlink.transfer(nbytes, Direction.RX)
        yield from self.fabric.uplink.transfer(nbytes, Direction.RX)
        return None

    def from_host(self, nbytes: int) -> Generator:
        """Host -> endpoint DMA (downstream)."""
        yield from self.fabric.uplink.transfer(nbytes, Direction.TX)
        yield from self.downlink.transfer(nbytes, Direction.TX)
        return None

    @property
    def bandwidth(self) -> float:
        """Effective one-direction bandwidth of the whole path."""
        return min(self.downlink.bandwidth, self.fabric.uplink.bandwidth)


class RootComplex:
    """Marker for the host side of the fabric (owns the uplink)."""

    def __init__(self, uplink: PcieLink):
        self.uplink = uplink


class PcieSwitch:
    """Fan-out stage: holds the downlinks."""

    def __init__(self, downlinks: list[PcieLink]):
        self.downlinks = downlinks


class PcieFabric:
    """Host root complex + switch + N endpoint ports.

    Parameters follow the paper's numbers by default: a x16 Gen3 uplink
    (~16 GB/s raw, ~13.7 GB/s effective) and x4 Gen3 endpoint links
    (~2 GB/s class, matching "2.0 GB/s per SSD").
    """

    def __init__(
        self,
        sim: Simulator,
        endpoints: int,
        uplink_lanes: int = 16,
        endpoint_lanes: int = 4,
        gen: PcieGen = PcieGen.GEN3,
        name: str = "fabric",
        energy_sink: Callable[[str, float], None] | None = None,
    ):
        if endpoints < 1:
            raise ValueError("endpoints must be >= 1")
        self.sim = sim
        self.name = name
        self.uplink = PcieLink(
            sim,
            LinkParams(gen=gen, lanes=uplink_lanes),
            name=f"{name}.uplink",
            energy_sink=energy_sink,
        )
        self.root_complex = RootComplex(self.uplink)
        downlinks = [
            PcieLink(
                sim,
                LinkParams(gen=gen, lanes=endpoint_lanes),
                name=f"{name}.down{i}",
                energy_sink=energy_sink,
            )
            for i in range(endpoints)
        ]
        self.switch = PcieSwitch(downlinks)
        self.ports = [PciePort(self, i, link) for i, link in enumerate(downlinks)]

    def __len__(self) -> int:
        return len(self.ports)

    @property
    def host_ingest_bandwidth(self) -> float:
        """Host-side ceiling for data arriving from all endpoints."""
        return self.uplink.bandwidth

    def mismatch_factor(self, media_bandwidth_per_endpoint: float) -> float:
        """Paper Fig. 1: aggregate media bandwidth / host ingest ceiling."""
        if media_bandwidth_per_endpoint <= 0:
            raise ValueError("media bandwidth must be positive")
        return len(self.ports) * media_bandwidth_per_endpoint / self.host_ingest_bandwidth
