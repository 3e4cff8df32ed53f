"""A conventional (no in-situ processing) NVMe SSD."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.calibration import DEVICE_CONTROLLER_W
from repro.ecc import EccConfig, EccEngine
from repro.flash import FlashArray, FlashGeometry
from repro.ftl import FtlConfig, create_backend
from repro.nvme import NvmeController
from repro.obs.metrics import MetricsRegistry
from repro.pcie.switch import PciePort
from repro.power import PowerMeter
from repro.sim import Simulator, Tracer

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids a config cycle)
    from repro.config.schema import DeviceBackendConfig, NvmeConfig

__all__ = ["ConventionalSSD", "small_geometry"]


def small_geometry(capacity_bytes: int = 64 * 1024 * 1024, channels: int = 8) -> FlashGeometry:
    """A simulation-friendly geometry with realistic parallelism."""
    base = FlashGeometry(
        channels=channels,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_size=16384,
    )
    return base.scaled(capacity_bytes)


class ConventionalSSD:
    """Storage-only NVMe drive: flash + ECC + FTL + front-end."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "ssd",
        geometry: FlashGeometry | None = None,
        port: PciePort | None = None,
        meter: PowerMeter | None = None,
        store_data: bool = True,
        ftl_config: FtlConfig | None = None,
        ecc_config: EccConfig | None = None,
        nvme_config: "NvmeConfig | None" = None,
        device_config: "DeviceBackendConfig | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.sim = sim
        self.name = name
        self.meter = meter
        sink = meter.sink if meter is not None else None
        self.flash = FlashArray(
            sim,
            geometry=geometry or small_geometry(),
            name=f"{name}.flash",
            energy_sink=sink,
            store_data=store_data,
            tracer=tracer,
        )
        self.ecc = EccEngine(sim, ecc_config, name=f"{name}.ecc", energy_sink=sink)
        # ``device_config`` selects the translation backend by name; None
        # (and an explicit default ``page``) constructs the page-mapped FTL.
        backend = "page" if device_config is None else device_config.backend
        knobs = (
            {}
            if device_config is None or backend == "page"
            else {
                "zone_blocks": device_config.zone_blocks,
                "max_open_zones": device_config.max_open_zones,
            }
        )
        self.ftl = create_backend(
            backend, sim, self.flash, self.ecc, config=ftl_config,
            name=f"{name}.ftl", tracer=tracer, metrics=metrics, **knobs,
        )
        # NvmeConfig's defaults mirror the controller's, so None and a
        # default-constructed config build identical front ends
        front = {} if nvme_config is None else {
            "queue_pairs": nvme_config.queue_pairs,
            "queue_depth": nvme_config.queue_depth,
            "workers_per_queue": nvme_config.workers_per_queue,
            "firmware_latency": nvme_config.firmware_latency,
            "firmware_cycles": nvme_config.firmware_cycles,
        }
        self.controller = NvmeController(
            sim, self.ftl, port=port, name=f"{name}.nvme", tracer=tracer,
            metrics=metrics, **front,
        )
        if meter is not None:
            meter.register_static(f"{name}.controller.static", DEVICE_CONTROLLER_W)
            meter.register_static(
                f"{name}.flash.static",
                self.flash.energy.idle_power(self.flash.geometry.dies),
            )

    @property
    def capacity_bytes(self) -> int:
        return self.ftl.logical_capacity_bytes

    def describe(self) -> dict:
        return {
            "name": self.name,
            "capacity_bytes": self.capacity_bytes,
            "channels": self.flash.geometry.channels,
            "isc": False,
        }
