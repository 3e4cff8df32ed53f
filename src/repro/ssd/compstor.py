"""The CompStor device assembly (paper Fig. 2).

A :class:`ConventionalSSD` storage stack plus:

- a dedicated :class:`~repro.isps.subsystem.InSituProcessingSubsystem`
  (quad A53 + 8 GB DRAM + embedded Linux) with a direct FTL path;
- the :class:`~repro.isps.agent.IspsAgent` daemon, registered as the NVMe
  controller's ISC handler so minions/queries tunnel over vendor opcodes.

The isolation claim is structural: storage IO runs on the controller's
queues/FTL resources; computation runs on the ISPS cluster.  Neither path
contains an ``if`` that throttles the other — any interference measured in
the ablation bench comes from genuinely shared resources (flash dies and
channel buses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.calibration import DEVICE_DRAM_W
from repro.apps import default_registry
from repro.cpu.core import CpuSpec
from repro.cpu.models import ARM_A53_QUAD
from repro.ecc import EccConfig
from repro.flash import FlashGeometry
from repro.ftl import FtlConfig
from repro.isos.loader import ExecutableRegistry
from repro.isps import InSituProcessingSubsystem, IspsAgent
from repro.obs.metrics import MetricsRegistry
from repro.pcie.switch import PciePort
from repro.power import PowerMeter
from repro.sim import Simulator, Tracer
from repro.ssd.conventional import ConventionalSSD, small_geometry

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids a config cycle)
    from repro.config.schema import DeviceBackendConfig, NvmeConfig

__all__ = ["CompStorSSD", "PROTOTYPE_CAPACITY_BYTES", "prototype_geometry"]

#: The paper's prototype: a 24 TB NVMe SSD.
PROTOTYPE_CAPACITY_BYTES = 24 * 10**12


def prototype_geometry() -> FlashGeometry:
    """Full 24 TB prototype geometry (use analytic mode at this scale)."""
    return FlashGeometry().scaled(PROTOTYPE_CAPACITY_BYTES)


class CompStorSSD(ConventionalSSD):
    """In-situ processing SSD: conventional storage stack + ISPS + agent."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "compstor",
        geometry: FlashGeometry | None = None,
        port: PciePort | None = None,
        meter: PowerMeter | None = None,
        registry: ExecutableRegistry | None = None,
        store_data: bool = True,
        ftl_config: FtlConfig | None = None,
        ecc_config: EccConfig | None = None,
        nvme_config: "NvmeConfig | None" = None,
        device_config: "DeviceBackendConfig | None" = None,
        cpu_spec: CpuSpec | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
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
            nvme_config=nvme_config,
            device_config=device_config,
            tracer=tracer,
            metrics=metrics,
        )
        sink = meter.sink if meter is not None else None
        spec = cpu_spec if cpu_spec is not None else ARM_A53_QUAD
        self.isps = InSituProcessingSubsystem(
            sim,
            self.ftl,
            registry=(registry or default_registry()),
            spec=spec,
            name=f"{name}.isps",
            energy_sink=sink,
            tracer=tracer,
        )
        self.agent = IspsAgent(
            sim, self.isps, device_name=name, tracer=tracer, metrics=metrics
        )
        self.controller.register_isc_handler(self.agent.handle)
        if meter is not None:
            meter.register_static(f"{name}.isps.static", spec.p_idle)
            meter.register_static(f"{name}.isps.dram", DEVICE_DRAM_W)

    @property
    def fs(self):
        """The in-storage filesystem (staging and assertions)."""
        return self.isps.fs

    def describe(self) -> dict:
        info = super().describe()
        info["isc"] = True
        info["isps"] = self.isps.describe()
        return info
