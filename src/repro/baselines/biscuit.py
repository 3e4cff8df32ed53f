"""Biscuit-style shared-core in-storage computing.

Gu et al.'s Biscuit (ISCA'16) runs user tasks on ARM Cortex-R7 cores inside
the SSD controller — cores that also execute firmware.  The paper's Table I
criticism: "this approach results in a potential degradation impact on the
performance of the storage device".

:class:`BiscuitSSD` reproduces the architecture: a dual-R7-class cluster
serves *both* NVMe command processing (``firmware_cluster``) and ISC tasks
(the agent's OS runs on the same cluster).  Under concurrent compute, read
latency climbs — measured by the isolation ablation bench against CompStor,
whose dedicated ISPS shows no such cliff.
"""

from __future__ import annotations

from repro.apps import default_registry
from repro.cpu.core import CpuCluster, CpuSpec
from repro.ecc import EccConfig
from repro.flash import FlashGeometry
from repro.ftl import FtlConfig
from repro.isos.loader import ExecutableRegistry
from repro.isps import InSituProcessingSubsystem, IspsAgent
from repro.pcie.switch import PciePort
from repro.power import PowerMeter
from repro.sim import Simulator, Tracer
from repro.ssd.conventional import ConventionalSSD, small_geometry

__all__ = ["ARM_R7_DUAL", "BiscuitSSD"]

#: Controller-class real-time cores (Biscuit's hardware).  Narrow in-order
#: pipeline, no L2 to speak of, tuned for firmware not data processing.
ARM_R7_DUAL = CpuSpec(
    name="ARM Cortex-R7 dual @ 1.0 GHz (shared with firmware)",
    cores=2,
    freq_hz=1.0e9,
    ipc=0.9,
    p_active_core=0.25,
    p_idle=0.3,
    l1_kib=32,
    l2_kib=128,
    dram_gib=2,
)


class BiscuitSSD(ConventionalSSD):
    """ISC SSD whose compute cores are shared with the storage firmware."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "biscuit",
        geometry: FlashGeometry | None = None,
        port: PciePort | None = None,
        meter: PowerMeter | None = None,
        registry: ExecutableRegistry | None = None,
        store_data: bool = True,
        ftl_config: FtlConfig | None = None,
        ecc_config: EccConfig | None = None,
        tracer: Tracer | None = None,
        firmware_cycles: float = 15_000.0,
    ):
        # Build the shared cluster first so the controller can charge
        # firmware work to it.
        sink = meter.sink if meter is not None else None
        shared_cluster = CpuCluster(sim, ARM_R7_DUAL, name=f"{name}.cores", energy_sink=sink)
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
        # rewire the front-end onto the shared cores
        self.controller.firmware_cluster = shared_cluster
        self.controller.firmware_cycles = firmware_cycles
        self.shared_cluster = shared_cluster
        # the ISC tasks run on the SAME cluster as the firmware
        self.isps = InSituProcessingSubsystem(
            sim,
            self.ftl,
            registry=(registry or default_registry()),
            name=f"{name}.isc",
            energy_sink=sink,
            tracer=tracer,
            cluster=shared_cluster,
        )
        self.agent = IspsAgent(sim, self.isps, device_name=name, tracer=tracer)
        self.controller.register_isc_handler(self.agent.handle)
        if meter is not None:
            meter.register_static(f"{name}.cores.static", ARM_R7_DUAL.p_idle)

    @property
    def fs(self):
        return self.isps.fs
