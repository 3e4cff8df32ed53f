"""Unit tests for the host server and in-situ client error paths."""

import pytest

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.host import HostServer, InSituClient
from repro.host.insitu import InSituError
from repro.proto import QueryKind
from repro.sim import Simulator
from repro.ssd import CompStorSSD, ConventionalSSD
from repro.ssd.conventional import small_geometry

CAPACITY = 16 * 1024 * 1024


def test_host_describe_matches_table4():
    sim = Simulator()
    host = HostServer(sim)
    info = host.describe()
    assert "E5-2620 v4" in info["cpu"]
    assert info["memory_gib"] == 32
    assert info["mounted"] is False


def test_host_requires_mount_before_os():
    sim = Simulator()
    host = HostServer(sim)
    with pytest.raises(RuntimeError, match="mount"):
        host.require_os()


def test_host_mount_builds_fs_over_nvme():
    sim = Simulator()
    ssd = ConventionalSSD(sim, geometry=small_geometry(CAPACITY))
    host = HostServer(sim)
    os_ = host.mount(ssd.controller)
    assert host.require_os() is os_
    assert os_.isa == "xeon"
    assert host.fs.page_size == ssd.ftl.page_size

    def flow():
        yield from host.fs.write_file("host.txt", b"via nvme")
        return (yield from host.fs.read_file("host.txt"))

    assert sim.run(sim.process(flow())) == b"via nvme"
    # the data really crossed the NVMe front-end
    assert ssd.controller.commands_executed > 0


def test_client_unknown_device_error():
    sim = Simulator()
    client = InSituClient(sim)
    with pytest.raises(InSituError, match="unknown device"):
        sim.run(sim.process(client.run("ghost", "ls")))


def test_client_query_unknown_device():
    sim = Simulator()
    client = InSituClient(sim)
    with pytest.raises(InSituError, match="unknown device"):
        sim.run(sim.process(client.query("ghost", QueryKind.PING)))


def test_client_devices_listing():
    sim = Simulator()
    client = InSituClient(sim)
    assert client.devices() == []
    a = CompStorSSD(sim, name="alpha", geometry=small_geometry(CAPACITY))
    b = CompStorSSD(sim, name="beta", geometry=small_geometry(CAPACITY))
    client.attach(a.controller)
    client.attach(b.controller)
    assert client.devices() == ["alpha", "beta"]


def test_status_all_covers_every_device():
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=CAPACITY), fleet=FleetConfig(devices_per_node=3)
    ))

    def flow():
        return (yield from node.client.status_all())

    statuses = node.sim.run(node.sim.process(flow()))
    assert sorted(statuses) == ["compstor0", "compstor1", "compstor2"]
    assert all(s.device == name for name, s in statuses.items())


def test_client_counts_traffic():
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=CAPACITY), fleet=FleetConfig(devices_per_node=1)
    ))
    ssd = node.compstors[0]
    node.sim.run(node.sim.process(ssd.fs.write_file("f.txt", b"fox\n")))

    def flow():
        yield from node.client.run("compstor0", "grep fox f.txt")
        yield from node.client.status("compstor0")

    node.sim.run(node.sim.process(flow()))
    assert node.client.minions_sent == 1
    assert node.client.queries_sent == 1


def test_queue_pair_validation():
    from repro.nvme.queues import QueuePair

    with pytest.raises(ValueError):
        QueuePair(Simulator(), depth=0)


def test_host_fs_delete_and_flush_over_nvme():
    """TRIM and FLUSH flow through the NVMe front-end from the host FS."""
    sim = Simulator()
    ssd = ConventionalSSD(sim, geometry=small_geometry(CAPACITY))
    host = HostServer(sim)
    host.mount(ssd.controller)

    def flow():
        yield from host.fs.write_file("temp.dat", b"z" * 5000)
        yield from host.fs.device.flush()
        yield from host.fs.delete("temp.dat")

    sim.run(sim.process(flow()))
    assert ssd.ftl.trims > 0  # the delete became DSM/TRIM commands
    assert not host.fs.exists("temp.dat")
