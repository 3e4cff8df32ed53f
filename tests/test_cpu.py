"""Unit tests for CPU cluster and run-queue models."""

import pytest

from repro.cpu import ARM_A53_QUAD, CpuCluster, CpuSpec, RunQueue, XEON_E5_2620_V4
from repro.sim import Simulator


def test_paper_table2_isps_characteristics():
    """Table II: quad-core A53 @ 1.5 GHz, 32KB L1, 1MB L2, 8GB DDR4."""
    assert ARM_A53_QUAD.cores == 4
    assert ARM_A53_QUAD.freq_hz == 1.5e9
    assert ARM_A53_QUAD.l1_kib == 32
    assert ARM_A53_QUAD.l2_kib == 1024
    assert ARM_A53_QUAD.dram_gib == 8


def test_paper_table4_host_cpu():
    assert "E5-2620" in XEON_E5_2620_V4.name
    assert XEON_E5_2620_V4.cores == 8
    assert XEON_E5_2620_V4.dram_gib == 32


def test_xeon_outperforms_a53_per_core():
    """Single-thread perf = freq x ipc; Xeon must lead by ~3x."""
    xeon = XEON_E5_2620_V4.freq_hz * XEON_E5_2620_V4.ipc
    a53 = ARM_A53_QUAD.freq_hz * ARM_A53_QUAD.ipc
    assert 2.0 < xeon / a53 < 5.0


def test_a53_wins_on_efficiency():
    """Perf per active watt must favour the A53 (the paper's energy story)."""
    xeon = XEON_E5_2620_V4.freq_hz * XEON_E5_2620_V4.ipc / XEON_E5_2620_V4.p_active_core
    a53 = ARM_A53_QUAD.freq_hz * ARM_A53_QUAD.ipc / ARM_A53_QUAD.p_active_core
    assert a53 > 2 * xeon


def test_execute_duration():
    sim = Simulator()
    cpu = CpuCluster(sim, ARM_A53_QUAD)

    def flow():
        return (yield from cpu.execute(1.5e9))  # 1 second of cycles

    assert sim.run(sim.process(flow())) == pytest.approx(1.0)


def test_parallelism_capped_by_cores():
    sim = Simulator()
    spec = CpuSpec(name="duo", cores=2, freq_hz=1e9, ipc=1.0, p_active_core=1.0, p_idle=0.5)
    cpu = CpuCluster(sim, spec)
    for _ in range(4):
        sim.process(cpu.execute(1e9))  # 1s each
    sim.run()
    assert sim.now == pytest.approx(2.0)  # 4 tasks / 2 cores


def test_energy_charged_for_active_time():
    sim = Simulator()
    charged = []
    cpu = CpuCluster(sim, ARM_A53_QUAD, energy_sink=lambda n, j: charged.append(j))
    sim.run(sim.process(cpu.execute(1.5e9)))
    assert charged == [pytest.approx(ARM_A53_QUAD.p_active_core * 1.0)]


def test_utilization_and_temperature():
    sim = Simulator()
    cpu = CpuCluster(sim, ARM_A53_QUAD)
    sim.process(cpu.execute(1.5e9))
    sim.run(until=2.0)
    assert cpu.utilization() == pytest.approx(1 / 8)  # 1 of 4 cores for 1 of 2 s
    idle_temp = 35.0 + 4.0 * ARM_A53_QUAD.p_idle
    assert cpu.temperature_c() > idle_temp


def test_spec_validation():
    with pytest.raises(ValueError):
        CpuSpec(name="bad", cores=0, freq_hz=1e9, ipc=1, p_active_core=1, p_idle=1)
    with pytest.raises(ValueError):
        CpuSpec(name="bad", cores=1, freq_hz=-1, ipc=1, p_active_core=1, p_idle=1)


def test_runqueue_slices_interleave_fairly():
    """Two equal tasks on one core finish together (not one after another)."""
    sim = Simulator()
    spec = CpuSpec(name="uni", cores=1, freq_hz=1e9, ipc=1.0, p_active_core=1.0, p_idle=0.1)
    cpu = CpuCluster(sim, spec)
    runq = RunQueue(sim, cpu, quantum=1e-3)
    finish = []

    def task(tag):
        yield from runq.run_cycles(0.5e9)  # 0.5s of work each
        finish.append((tag, sim.now))

    sim.process(task("a"))
    sim.process(task("b"))
    sim.run()
    (t_a, end_a), (t_b, end_b) = sorted(finish, key=lambda x: x[1])
    assert end_b == pytest.approx(1.0, rel=1e-3)
    # fair sharing: the first finisher ends within ~one quantum of the second
    assert end_b - end_a <= 2e-3


def test_runqueue_priority_favours_low_values():
    sim = Simulator()
    spec = CpuSpec(name="uni", cores=1, freq_hz=1e9, ipc=1.0, p_active_core=1.0, p_idle=0.1)
    cpu = CpuCluster(sim, spec)
    runq = RunQueue(sim, cpu, quantum=10e-3)
    order = []

    def task(tag, prio):
        yield sim.timeout(1e-6)  # let both enqueue behind the first quantum
        yield from runq.run_cycles(20e6, priority=prio)
        order.append(tag)

    def hog():
        yield from runq.run_cycles(30e6)

    sim.process(hog())
    sim.process(task("low-prio", 5))
    sim.process(task("high-prio", 1))
    sim.run()
    assert order.index("high-prio") < order.index("low-prio")


def test_runqueue_validation():
    sim = Simulator()
    cpu = CpuCluster(sim, ARM_A53_QUAD)
    with pytest.raises(ValueError):
        RunQueue(sim, cpu, quantum=0)
    runq = RunQueue(sim, cpu)
    with pytest.raises(ValueError):
        sim.run(sim.process(runq.run_cycles(-5)))
