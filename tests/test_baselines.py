"""Tests for the baseline systems and the Table I registry."""

import pytest

from repro.baselines import (
    ARM_R7_DUAL,
    BiscuitSSD,
    FpgaAcceleratedSSD,
    HostOnlyRunner,
    SYSTEMS,
    table1_rows,
)
from repro.baselines.fpga import FpgaKernel
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.sim import Simulator
from repro.ssd.conventional import small_geometry

CAPACITY = 16 * 1024 * 1024


def host_rig(with_baseline_ssd: bool) -> ScenarioConfig:
    """One CompStor, optionally next to the host's baseline drive."""
    return ScenarioConfig(
        flash=FlashConfig(capacity_bytes=CAPACITY),
        fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=with_baseline_ssd),
    )


# -- Table I ----------------------------------------------------------------

def test_table1_compstor_is_unique_full_feature_row():
    full = [s for s in SYSTEMS if s.all_features]
    assert len(full) == 1
    assert full[0].system == "CompStor"


def test_table1_biscuit_lacks_os_flexibility():
    biscuit = next(s for s in SYSTEMS if "Biscuit" in s.system)
    assert biscuit.dynamic_task_loading
    assert not biscuit.os_level_flexibility


def test_table1_rows_shape():
    rows = table1_rows()
    assert len(rows) == 8
    assert all(len(row) == 5 for row in rows)


# -- host-only --------------------------------------------------------------

def test_host_only_runner_executes_on_xeon():
    node = build_node(host_rig(with_baseline_ssd=True))
    runner = HostOnlyRunner(node)
    fs = node.host.require_os().fs
    node.sim.run(node.sim.process(fs.write_file("h.txt", b"fox\n" * 50)))

    def flow():
        return (yield from runner.run("grep fox h.txt"))

    status, seconds = node.sim.run(node.sim.process(flow()))
    assert status.code == 0
    assert status.stdout == b"50"
    assert seconds > 0
    assert node.host.cluster.cycles_executed > 0


def test_host_only_requires_baseline_drive():
    node = build_node(host_rig(with_baseline_ssd=False))
    with pytest.raises(ValueError, match="baseline"):
        HostOnlyRunner(node)


def test_host_run_many_concurrent():
    node = build_node(host_rig(with_baseline_ssd=True))
    runner = HostOnlyRunner(node)
    fs = node.host.require_os().fs
    node.sim.run(node.sim.process(fs.write_file("h.txt", b"fox\n" * 200)))

    def flow():
        return (yield from runner.run_many(["grep fox h.txt"] * 4))

    statuses, wall = node.sim.run(node.sim.process(flow()))
    assert len(statuses) == 4
    assert all(s.code == 0 for s in statuses)


# -- Biscuit ------------------------------------------------------------------

def make_biscuit():
    sim = Simulator()
    ssd = BiscuitSSD(sim, geometry=small_geometry(CAPACITY))
    return sim, ssd


def test_biscuit_serves_minions_on_shared_cores():
    from repro.host import InSituClient

    sim, ssd = make_biscuit()
    client = InSituClient(sim)
    client.attach(ssd.controller)
    sim.run(sim.process(ssd.fs.write_file("f.txt", b"fox\n" * 10)))

    def flow():
        return (yield from client.run("biscuit", "grep fox f.txt"))

    response = sim.run(sim.process(flow()))
    assert response.ok
    assert response.stdout == b"10"


def test_biscuit_firmware_charges_shared_cluster():
    from repro.nvme import NvmeCommand, Opcode

    sim, ssd = make_biscuit()
    before = ssd.shared_cluster.cycles_executed

    def flow():
        yield from ssd.controller.queue(0).call(NvmeCommand(opcode=Opcode.WRITE, slba=0, data=b"x"))

    sim.run(sim.process(flow()))
    assert ssd.shared_cluster.cycles_executed == before + ssd.controller.firmware_cycles


def test_biscuit_compute_degrades_io_latency_compstor_does_not():
    """The central Table I property, quantified: concurrent ISC inflates
    Biscuit read latency far more than CompStor read latency."""
    import numpy as np

    from repro.host import InSituClient
    from repro.nvme import NvmeCommand, Opcode
    from repro.ssd import CompStorSSD

    def median_read_latency_under_compute(make_ssd, devname):
        """Saturate every compute core with scans, then probe read latency."""
        sim = Simulator(seed=11)
        ssd = make_ssd(sim)
        client = InSituClient(sim)
        client.attach(ssd.controller)

        cores = ssd.isps.cluster.spec.cores
        probe_lpns = range(ssd.ftl.logical_pages - 12, ssd.ftl.logical_pages)

        def setup():
            for i in range(cores):
                yield from ssd.fs.write_file(f"big{i}.txt", b"fox word line\n" * 20000)
            for lpn in probe_lpns:
                yield from ssd.ftl.write(lpn, b"io")
            yield from ssd.ftl.flush()

        sim.run(sim.process(setup()))
        latencies = []

        def measure():
            compute = [
                sim.process(client.run(devname, f"grep fox big{i}.txt"))
                for i in range(cores)
            ]
            yield sim.timeout(4e-3)
            qp = ssd.controller.queue(0)
            # probe while the scans are guaranteed in flight (they run tens
            # of ms); space probes out so each samples fresh contention
            for lpn in probe_lpns:
                completion = yield from qp.call(NvmeCommand(opcode=Opcode.READ, slba=lpn))
                latencies.append(completion.latency)
                yield sim.timeout(4e-4)
            yield sim.all_of(compute)

        sim.run(sim.process(measure()))
        return float(np.median(latencies))

    biscuit_lat = median_read_latency_under_compute(
        lambda sim: BiscuitSSD(sim, geometry=small_geometry(CAPACITY)), "biscuit"
    )
    compstor_lat = median_read_latency_under_compute(
        lambda sim: CompStorSSD(sim, geometry=small_geometry(CAPACITY)), "compstor"
    )
    assert biscuit_lat > 2.0 * compstor_lat


# -- FPGA ----------------------------------------------------------------------

def test_fpga_unknown_kernel_needs_synthesis():
    sim = Simulator()
    ssd = FpgaAcceleratedSSD(sim, geometry=small_geometry(CAPACITY))
    assert "gzip" not in ssd.kernels

    # synthesis takes *hours* of simulated time — the flexibility tax
    def synth():
        yield from ssd.synthesize_kernel(FpgaKernel("gzip", bytes_per_second=0.8e9))
        return sim.now

    t = sim.run(sim.process(synth()))
    assert t >= ssd.synthesis_seconds
    assert "gzip" in ssd.kernels and ssd.syntheses == 1


def test_r7_spec_is_weaker_than_a53_cluster():
    from repro.cpu import ARM_A53_QUAD

    r7 = ARM_R7_DUAL.cores * ARM_R7_DUAL.freq_hz * ARM_R7_DUAL.ipc
    a53 = ARM_A53_QUAD.cores * ARM_A53_QUAD.freq_hz * ARM_A53_QUAD.ipc
    assert a53 > 3 * r7
