"""Tests for the device assemblies (CompStor / conventional / prototype)."""

import pytest

from repro.power import PowerMeter
from repro.sim import Simulator
from repro.ssd import CompStorSSD, ConventionalSSD, PROTOTYPE_CAPACITY_BYTES, prototype_geometry
from repro.ssd.conventional import small_geometry

CAPACITY = 16 * 1024 * 1024


def test_compstor_describe():
    sim = Simulator()
    ssd = CompStorSSD(sim, geometry=small_geometry(CAPACITY))
    info = ssd.describe()
    assert info["isc"] is True
    assert info["isps"]["cores"] == 4
    assert info["capacity_bytes"] == ssd.ftl.logical_capacity_bytes


def test_conventional_describe():
    sim = Simulator()
    ssd = ConventionalSSD(sim, geometry=small_geometry(CAPACITY))
    assert ssd.describe()["isc"] is False


def test_prototype_geometry_is_24tb_16_channels():
    geo = prototype_geometry()
    assert geo.channels == 16
    assert abs(geo.capacity_bytes - PROTOTYPE_CAPACITY_BYTES) / PROTOTYPE_CAPACITY_BYTES < 0.01


def test_small_geometry_scales_capacity():
    geo = small_geometry(128 * 1024 * 1024)
    assert abs(geo.capacity_bytes - 128 * 1024 * 1024) / (128 * 1024 * 1024) < 0.1
    assert geo.channels == 8


def test_meter_registration_covers_device_components():
    sim = Simulator()
    meter = PowerMeter(sim)
    CompStorSSD(sim, name="dev", geometry=small_geometry(CAPACITY), meter=meter)
    static = meter._static
    assert "dev.controller.static" in static
    assert "dev.flash.static" in static
    assert "dev.isps.static" in static
    assert "dev.isps.dram" in static
    # device static power lands in the calibrated ~5-7 W band
    assert 4.0 < sum(static.values()) < 8.0


def test_two_devices_one_meter_no_name_collision():
    sim = Simulator()
    meter = PowerMeter(sim)
    CompStorSSD(sim, name="d0", geometry=small_geometry(CAPACITY), meter=meter)
    CompStorSSD(sim, name="d1", geometry=small_geometry(CAPACITY), meter=meter)
    assert len(meter._static) == 8


def test_compstor_isps_and_host_share_the_ftl():
    """The ISPS path and the NVMe path address the same logical space."""
    from repro.nvme import NvmeCommand, Opcode

    sim = Simulator()
    ssd = CompStorSSD(sim, geometry=small_geometry(CAPACITY))

    def flow():
        # write via the in-storage filesystem
        yield from ssd.fs.write_file("x.txt", b"written inside")
        yield from ssd.ftl.flush()
        lpn = ssd.fs.stat("x.txt").pages[0]
        # read the same logical page via NVMe
        completion = yield from ssd.controller.queue(0).call(
            NvmeCommand(opcode=Opcode.READ, slba=lpn)
        )
        return completion.result[0]

    data = sim.run(sim.process(flow()))
    assert data == b"written inside"


def test_isps_direct_path_faster_than_nvme_path():
    from repro.nvme import NvmeCommand, Opcode
    from repro.pcie import PcieFabric

    sim = Simulator()
    fabric = PcieFabric(sim, endpoints=1)
    ssd = CompStorSSD(sim, geometry=small_geometry(CAPACITY), port=fabric.ports[0])

    def flow():
        yield from ssd.ftl.write(0, b"x")
        yield from ssd.ftl.flush()
        t0 = sim.now
        yield from ssd.isps.device.read(0)
        direct = sim.now - t0
        t0 = sim.now
        yield from ssd.controller.queue(0).call(NvmeCommand(opcode=Opcode.READ, slba=0))
        external = sim.now - t0
        return direct, external

    direct, external = sim.run(sim.process(flow()))
    assert direct < external  # the paper's "more efficient than the host CPU"
