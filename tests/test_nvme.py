"""Unit/integration tests for the NVMe front-end."""

import pytest

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer
from repro.nvme import IscPayload, NvmeCommand, NvmeController, Opcode, Status
from repro.pcie import PcieFabric
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=6, pages_per_block=8,
    page_size=2048,
)


def make_controller(sim=None, with_port=False, **ctrl_kw):
    sim = sim or Simulator()
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    ftl = FlashTranslationLayer(sim, flash, ecc)
    port = None
    if with_port:
        fabric = PcieFabric(sim, endpoints=1)
        port = fabric.ports[0]
    ctrl = NvmeController(sim, ftl, port=port, **ctrl_kw)
    return sim, ctrl


def call(sim, ctrl, command, queue=0):
    return sim.run(sim.process(ctrl.queue(queue).call(command)))


def test_write_then_read_roundtrip():
    sim, ctrl = make_controller()
    w = call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=3, data=b"nvme-data"))
    assert w.ok
    r = call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=3))
    assert r.ok
    assert r.result == [b"nvme-data"]


def test_multi_page_write_splits_data():
    sim, ctrl = make_controller()
    page = GEO.page_size
    data = b"A" * page + b"B" * page
    call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=0, nlb=2, data=data))
    r = call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=0, nlb=2))
    assert r.result == [b"A" * page, b"B" * page]


def test_read_out_of_range_status():
    sim, ctrl = make_controller()
    bad = ctrl.ftl.logical_pages
    r = call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=bad))
    assert r.status == Status.LBA_OUT_OF_RANGE


def test_trim_deallocates():
    sim, ctrl = make_controller()
    call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=0, data=b"x"))
    call(sim, ctrl, NvmeCommand(opcode=Opcode.FLUSH))
    t = call(sim, ctrl, NvmeCommand(opcode=Opcode.DSM_TRIM, lbas=[0]))
    assert t.ok
    r = call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=0))
    assert r.result == [None]


def test_trim_out_of_range_rejected():
    sim, ctrl = make_controller()
    t = call(sim, ctrl, NvmeCommand(opcode=Opcode.DSM_TRIM, lbas=[10**9]))
    assert t.status == Status.LBA_OUT_OF_RANGE


def test_flush_is_write_barrier():
    sim, ctrl = make_controller()
    call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=1, data=b"durable"))
    f = call(sim, ctrl, NvmeCommand(opcode=Opcode.FLUSH))
    assert f.ok
    assert len(ctrl.ftl.write_buffer.entries) == 0


def test_identify_reports_capacity_and_isc():
    sim, ctrl = make_controller()
    ident = call(sim, ctrl, NvmeCommand(opcode=Opcode.IDENTIFY)).result
    assert ident["logical_pages"] == ctrl.ftl.logical_pages
    assert ident["isc_capable"] is False


def test_vendor_command_without_handler_rejected():
    sim, ctrl = make_controller()
    c = call(sim, ctrl, NvmeCommand(opcode=Opcode.ISC_MINION, payload=IscPayload(body="job")))
    assert c.status == Status.INVALID_OPCODE


def test_vendor_command_dispatches_to_handler():
    sim, ctrl = make_controller()
    seen = []

    def handler(opcode, body):
        seen.append((opcode, body))
        yield sim.timeout(1e-3)
        return {"answer": body.upper()}

    ctrl.register_isc_handler(handler)
    c = call(sim, ctrl, NvmeCommand(opcode=Opcode.ISC_MINION, payload=IscPayload(body="job")))
    assert c.ok
    assert c.result == {"answer": "JOB"}
    assert seen == [(Opcode.ISC_MINION, "job")]
    assert ctrl.isc_commands == 1


def test_handler_exception_becomes_isc_failure():
    sim, ctrl = make_controller()

    def handler(opcode, body):
        yield sim.timeout(1e-6)
        raise RuntimeError("agent crashed")

    ctrl.register_isc_handler(handler)
    c = call(sim, ctrl, NvmeCommand(opcode=Opcode.ISC_QUERY, payload=IscPayload(body=None)))
    assert c.status == Status.ISC_FAILURE


def test_double_handler_registration_rejected():
    _, ctrl = make_controller()
    ctrl.register_isc_handler(lambda o, b: iter(()))
    with pytest.raises(RuntimeError):
        ctrl.register_isc_handler(lambda o, b: iter(()))


def test_vendor_payload_required():
    with pytest.raises(ValueError):
        NvmeCommand(opcode=Opcode.ISC_MINION)


def test_completion_latency_recorded():
    sim, ctrl = make_controller()
    c = call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=0, data=b"t"))
    assert c.latency > 0
    assert c.completed_at == sim.now


def test_concurrent_commands_respect_queue_depth():
    sim, ctrl = make_controller(queue_depth=2, workers_per_queue=1)
    results = []

    def client(i):
        comp = yield from ctrl.queue(0).call(
            NvmeCommand(opcode=Opcode.WRITE, slba=i, data=b"x")
        )
        results.append((i, comp.ok))

    for i in range(8):
        sim.process(client(i))
    sim.run()
    assert len(results) == 8
    assert all(ok for _, ok in results)


def test_dma_over_pcie_port_adds_transfer_time():
    sim_a, ctrl_a = make_controller(with_port=False)
    a = call(sim_a, ctrl_a, NvmeCommand(opcode=Opcode.READ, slba=0))

    sim_b, ctrl_b = make_controller(with_port=True)
    b = call(sim_b, ctrl_b, NvmeCommand(opcode=Opcode.READ, slba=0))
    assert b.latency > a.latency  # port DMA costs time


def test_raise_for_status():
    sim, ctrl = make_controller()
    from repro.nvme import NvmeError

    c = call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=10**9))
    with pytest.raises(NvmeError):
        c.raise_for_status()


def test_nlb_validation():
    with pytest.raises(ValueError):
        NvmeCommand(opcode=Opcode.READ, nlb=0)
    with pytest.raises(ValueError):
        NvmeCommand(opcode=Opcode.READ, slba=-1)


def test_get_log_page_smart():
    sim, ctrl = make_controller()
    call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=0, data=b"wear me"))
    call(sim, ctrl, NvmeCommand(opcode=Opcode.FLUSH))
    call(sim, ctrl, NvmeCommand(opcode=Opcode.READ, slba=0))
    smart = call(sim, ctrl, NvmeCommand(opcode=Opcode.GET_LOG_PAGE)).result
    assert smart["host_writes"] == 1
    assert smart["host_reads"] == 1
    assert smart["media_errors"] == 0
    assert smart["bad_blocks"] == 0
    assert 0 <= smart["percentage_used"] <= 100
    assert smart["available_spare"] > 0
    assert smart["latency"]["WRITE"]["count"] == 1
    assert smart["latency"]["READ"]["count"] == 1


def test_latency_stats_accumulate():
    sim, ctrl = make_controller()
    for i in range(5):
        call(sim, ctrl, NvmeCommand(opcode=Opcode.WRITE, slba=i, data=b"x"))
    stats = ctrl.latency_stats()
    assert stats["WRITE"]["count"] == 5
    assert 0 < stats["WRITE"]["mean"] <= stats["WRITE"]["max"]
