"""Parameter-level tests for the hardware model presets."""

import pytest

from repro.cpu import ARM_A53_QUAD, CpuCluster
from repro.flash import FlashEnergy, FlashTiming
from repro.pcie import PcieGen
from repro.pcie.link import LinkParams
from repro.sim import Simulator


def test_flash_timing_transfer_time():
    timing = FlashTiming()
    assert timing.transfer_time(0) == pytest.approx(timing.t_cmd)
    one_mb = timing.transfer_time(1_000_000)
    assert one_mb == pytest.approx(timing.t_cmd + 1_000_000 / 533e6)
    with pytest.raises(ValueError):
        timing.transfer_time(-1)


def test_flash_timing_validation():
    with pytest.raises(ValueError):
        FlashTiming(t_read=0)
    with pytest.raises(ValueError):
        FlashTiming(channel_rate=-1)


def test_flash_energy_model():
    energy = FlashEnergy()
    assert energy.transfer_energy(1000) == pytest.approx(1000 * energy.e_transfer_per_byte)
    assert energy.idle_power(64) == pytest.approx(64 * energy.p_idle_per_die)
    with pytest.raises(ValueError):
        energy.transfer_energy(-1)
    with pytest.raises(ValueError):
        energy.idle_power(-1)
    with pytest.raises(ValueError):
        FlashEnergy(e_read=-1)


def test_pcie_generations_double_per_gen():
    assert PcieGen.GEN2.lane_rate == pytest.approx(2 * PcieGen.GEN1.lane_rate)
    assert PcieGen.GEN4.lane_rate == pytest.approx(2 * PcieGen.GEN3.lane_rate, rel=0.01)


def test_pcie_x16_gen3_matches_paper_16gbs():
    """The paper's '16 lanes of PCIe = 16 GB/s' (raw; ~13.7 effective)."""
    raw = PcieGen.GEN3.lane_rate * 16
    assert raw == pytest.approx(15.76e9, rel=0.01)
    effective = LinkParams(gen=PcieGen.GEN3, lanes=16).bandwidth
    assert 13e9 < effective < 14.5e9


def test_temperature_rises_with_load():
    sim = Simulator()
    cluster = CpuCluster(sim, ARM_A53_QUAD)
    idle_temp = cluster.temperature_c()

    def hog():
        yield from cluster.execute(ARM_A53_QUAD.freq_hz * 4)

    for _ in range(4):
        sim.process(hog())
    sim.run(until=2.0)
    assert cluster.temperature_c() > idle_temp


def test_isps_dram_matches_table2():
    assert ARM_A53_QUAD.dram_gib == 8  # 8 GB DDR4 (Table II)


def test_cluster_busy_accounting():
    sim = Simulator()
    cluster = CpuCluster(sim, ARM_A53_QUAD)
    sim.run(sim.process(cluster.execute(1.5e9)))
    assert cluster.cycles_executed == pytest.approx(1.5e9)
    assert cluster.busy_seconds == pytest.approx(1.0)
