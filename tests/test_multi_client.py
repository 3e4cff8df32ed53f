"""Multi-queue and multi-client behaviour of the NVMe/ISC stack.

The paper: "CompStor client is able to send several concurrent minions to
different CompStors... there could be thousands of concurrent minions".
These tests cover the plumbing that makes that safe: independent queue
pairs, multiple clients sharing one device, and fairness across clients.
"""

import pytest

from repro.config import build_node, preset
from repro.host import InSituClient
from repro.nvme import NvmeCommand, Opcode
from repro.proto import Command


def stage(node, ssd, name, data):
    def flow():
        yield from ssd.fs.write_file(name, data)
        yield from ssd.ftl.flush()

    node.sim.run(node.sim.process(flow()))


def test_multiple_queue_pairs_progress_independently():
    from repro.ecc import CodewordLayout, EccConfig, EccEngine
    from repro.flash import BitErrorModel, FlashArray, FlashGeometry
    from repro.ftl import FlashTranslationLayer
    from repro.nvme import NvmeController
    from repro.sim import Simulator

    sim = Simulator()
    geo = FlashGeometry(channels=2, dies_per_channel=2, planes_per_die=1,
                        blocks_per_plane=6, pages_per_block=8, page_size=2048)
    flash = FlashArray(sim, geometry=geo, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    ftl = FlashTranslationLayer(sim, flash, ecc)
    ctrl = NvmeController(sim, ftl, queue_pairs=4, workers_per_queue=2)

    done = []

    def client(qid):
        completion = yield from ctrl.queue(qid).call(
            NvmeCommand(opcode=Opcode.WRITE, slba=qid, data=f"q{qid}".encode())
        )
        done.append((qid, completion.ok))

    for qid in range(4):
        sim.process(client(qid))
    sim.run()
    assert sorted(done) == [(0, True), (1, True), (2, True), (3, True)]
    assert ctrl.commands_executed == 4


def test_two_clients_share_one_compstor():
    node = build_node(preset("smoke"))
    ssd = node.compstors[0]
    stage(node, ssd, "shared.txt", b"fox\n" * 100)

    alice = node.client  # built-in client
    bob = InSituClient(node.sim, name="bob")
    bob.attach(ssd.controller)

    results = {}

    def run_as(client, tag):
        response = yield from client.run("compstor0", "grep fox shared.txt")
        results[tag] = response.stdout

    node.sim.process(run_as(alice, "alice"))
    node.sim.process(run_as(bob, "bob"))
    node.sim.run()
    assert results == {"alice": b"100", "bob": b"100"}


def test_many_concurrent_minions_one_device():
    """A burst of 24 minions against one drive completes, with bounded
    concurrency inside (the agent never loses one)."""
    node = build_node(preset("smoke"))
    ssd = node.compstors[0]
    stage(node, ssd, "f.txt", b"fox\n" * 50)

    def flow():
        responses = yield from node.client.gather(
            [("compstor0", Command(command_line="grep fox f.txt")) for _ in range(24)]
        )
        return responses

    responses = node.sim.run(node.sim.process(flow()))
    assert len(responses) == 24
    assert all(r.ok for r in responses)
    assert ssd.agent.minions_served == 24
    assert ssd.agent.active_minions == 0


def test_client_device_name_collision_rejected():
    node = build_node(preset("smoke"))
    with pytest.raises(ValueError, match="already attached"):
        node.client.attach(node.compstors[0].controller)


def test_storage_and_compute_traffic_interleave():
    """NVMe IO and ISC minions share the wire but both complete."""
    node = build_node(preset("smoke"))
    ssd = node.compstors[0]
    stage(node, ssd, "f.txt", b"fox\n" * 2000)
    qp = ssd.controller.queue(0)
    outcomes = {"io": 0, "isc": 0}

    base = ssd.ftl.logical_pages - 30

    def io_traffic():
        for i in range(20):
            completion = yield from qp.call(
                NvmeCommand(opcode=Opcode.WRITE, slba=base + i, data=b"io")
            )
            assert completion.ok
            outcomes["io"] += 1

    def isc_traffic():
        for _ in range(3):
            response = yield from node.client.run("compstor0", "grep fox f.txt")
            assert response.ok
            outcomes["isc"] += 1

    node.sim.process(io_traffic())
    node.sim.process(isc_traffic())
    node.sim.run()
    assert outcomes == {"io": 20, "isc": 3}
