"""BlueDBM-style fixed-function FPGA in-storage acceleration.

Jun et al.'s BlueDBM attaches FPGA accelerators to flash: extremely fast
and power-efficient for the kernels that have been synthesised, but (per
the paper's Table I critique) "dealing with pure FPGA accelerators ...
lacks in flexibility", and "the extra time it takes to generate RTL design
makes it time-consuming to reconfigure the FPGA frequently".

The model: a :class:`ConventionalSSD` plus a table of synthesised
kernels.  A kernel the table lacks needs an (expensive, offline) synthesis
step, modelled as ``synthesis_seconds`` — the flexibility tax, made
measurable against CompStor's dynamic task loading (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.ecc import EccConfig
from repro.flash import FlashGeometry
from repro.ftl import FtlConfig
from repro.pcie.switch import PciePort
from repro.power import PowerMeter
from repro.sim import Simulator, Tracer
from repro.ssd.conventional import ConventionalSSD, small_geometry

__all__ = ["FpgaAcceleratedSSD", "FpgaKernel"]


@dataclass(frozen=True, slots=True)
class FpgaKernel:
    """A synthesised accelerator kernel."""

    name: str
    bytes_per_second: float  # streaming line rate through the fabric
    active_power_w: float = 4.0

    def __post_init__(self) -> None:
        if self.bytes_per_second <= 0 or self.active_power_w < 0:
            raise ValueError("invalid kernel parameters")


#: Kernels a realistic deployment would have synthesised up front.
DEFAULT_KERNELS = (
    FpgaKernel("grep", bytes_per_second=2.0e9, active_power_w=4.0),
    FpgaKernel("sha1sum", bytes_per_second=1.5e9, active_power_w=5.0),
)


class FpgaAcceleratedSSD(ConventionalSSD):
    """Flash + fixed-function accelerators (no OS, no dynamic loading)."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "fpga-ssd",
        geometry: FlashGeometry | None = None,
        port: PciePort | None = None,
        meter: PowerMeter | None = None,
        store_data: bool = True,
        ftl_config: FtlConfig | None = None,
        ecc_config: EccConfig | None = None,
        tracer: Tracer | None = None,
        kernels: tuple[FpgaKernel, ...] = DEFAULT_KERNELS,
        synthesis_seconds: float = 3600.0,  # RTL + place&route for a new kernel
    ):
        super().__init__(
            sim,
            name=name,
            geometry=geometry or small_geometry(),
            port=port,
            meter=meter,
            store_data=store_data,
            ftl_config=ftl_config,
            ecc_config=ecc_config,
            tracer=tracer,
        )
        self.kernels = {k.name: k for k in kernels}
        self.synthesis_seconds = synthesis_seconds
        self.syntheses = 0

    # -- kernel management ---------------------------------------------------
    def synthesize_kernel(self, kernel: FpgaKernel) -> Generator:
        """Produce a new bitstream — hours of offline work (the flexibility
        gap versus CompStor's instant dynamic task loading)."""
        yield self.sim.timeout(self.synthesis_seconds)
        self.kernels[kernel.name] = kernel
        self.syntheses += 1
        return kernel.name
