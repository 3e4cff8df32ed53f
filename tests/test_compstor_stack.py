"""Integration tests: client -> NVMe -> agent -> ISPS -> flash and back."""

import gc

import pytest

from repro.config import FlashConfig, FleetConfig, ScenarioConfig
from repro.config import build_node as build_node_from
from repro.isos.loader import ExitStatus
from repro.isos.process import OsProcess
from repro.proto import Command, QueryKind, ResponseStatus
from repro.sim import Tracer


def build_node(devices=2, seed=0, with_baseline_ssd=False, tracer=None):
    config = ScenarioConfig(
        seed=seed,
        flash=FlashConfig(capacity_bytes=16 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=devices, with_baseline_ssd=with_baseline_ssd),
    )
    return build_node_from(config, tracer=tracer)


def drive(node, gen):
    return node.sim.run(node.sim.process(gen))


def put_device_file(node, ssd, name, data):
    def staged():
        yield from ssd.fs.write_file(name, data)
        yield from ssd.ftl.flush()  # land on NAND so scans exercise the flash path

    drive(node, staged())


def test_minion_round_trip_grep():
    node = build_node(devices=1)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "hay.txt", b"a fox\nnothing\nfox fox\n")

    def flow():
        response = yield from node.client.run("compstor0", "grep fox hay.txt")
        return response

    response = drive(node, flow())
    assert response.ok
    assert response.stdout == b"2"
    assert response.execution_seconds > 0
    assert response.device == "compstor0"


def test_minion_lifecycle_trace_matches_table3():
    """Table III: the six steps of a minion's lifetime, in order."""
    tracer = Tracer()
    node = build_node(devices=1, tracer=tracer)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "in.txt", b"needle\n")

    def flow():
        return (yield from node.client.run("compstor0", "grep needle in.txt"))

    drive(node, flow())
    kinds = list(dict.fromkeys(r.kind for r in tracer.records))
    # step 1: client configures and sends the minion via the in-situ library
    # step 2: agent receives it and spawns the off-loadable executable
    # steps 3-4: the executable reaches flash through the device driver
    # step 5: the agent tracks status; step 6: the response returns
    for expected in (
        "client.minion.sent",
        "minion.received",
        "minion.spawned",
        "flash.read",
        "minion.responded",
        "client.minion.returned",
    ):
        assert expected in kinds, f"missing {expected} in {kinds}"
    order = [kinds.index(k) for k in (
        "client.minion.sent", "minion.received", "minion.spawned", "minion.responded",
        "client.minion.returned",
    )]
    assert order == sorted(order)


def test_minion_rejected_for_missing_input():
    node = build_node(devices=1)

    def flow():
        return (
            yield from node.client.run(
                "compstor0", "grep x absent.txt", input_files=("absent.txt",)
            )
        )

    response = drive(node, flow())
    assert response.status == ResponseStatus.REJECTED
    assert b"missing input" in response.stdout


def test_minion_app_error_propagates():
    node = build_node(devices=1)

    def flow():
        return (yield from node.client.run("compstor0", "grep missingpattern nothere.txt"))

    response = drive(node, flow())
    # grep on a missing file exits 1
    assert response.status == ResponseStatus.APP_ERROR
    assert response.exit_code == 1


def test_minion_script_execution():
    node = build_node(devices=1)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "hay.txt", b"the fox\n")

    def flow():
        return (
            yield from node.client.run(
                "compstor0", script="gzip hay.txt\ngunzip hay.txt.gz\ngrep fox hay.txt"
            )
        )

    response = drive(node, flow())
    assert response.ok
    assert response.detail["script_steps"] == 3


def test_status_query_returns_telemetry():
    node = build_node(devices=1)

    def flow():
        return (yield from node.client.status("compstor0"))

    snap = drive(node, flow())
    assert snap.device == "compstor0"
    assert snap.temperature_c > 30
    assert snap.active_minions == 0
    assert snap.load_score() >= 0


def test_ping_and_list_queries():
    node = build_node(devices=1)

    def flow():
        pong = yield from node.client.query("compstor0", QueryKind.PING)
        apps = yield from node.client.query("compstor0", QueryKind.LIST_EXECUTABLES)
        return pong, apps

    pong, apps = drive(node, flow())
    assert pong == "pong"
    assert "grep" in apps and "gzip" in apps


def test_dynamic_task_loading_via_client():
    from repro.isos.loader import ExitStatus

    class CustomApp:
        name = "wordfreq"

        def run(self, ctx):
            data = yield from ctx.read_file(ctx.args[0])
            words = len((data or b"").split())
            return ExitStatus(code=0, stdout=str(words).encode())

    node = build_node(devices=2)
    put_device_file(node, node.compstors[0], "d.txt", b"alpha beta gamma\n")

    def flow():
        # not installed yet -> rejected
        r = yield from node.client.run("compstor0", "wordfreq d.txt")
        assert r.status == ResponseStatus.REJECTED
        # load everywhere at runtime, then it works
        yield from node.client.load_executable_everywhere(CustomApp())
        r2 = yield from node.client.run("compstor0", "wordfreq d.txt")
        return r2

    response = drive(node, flow())
    assert response.ok
    assert response.stdout == b"3"
    assert all("wordfreq" in ssd.isps.os.registry.installed() for ssd in node.compstors)


def test_concurrent_minions_to_multiple_devices():
    node = build_node(devices=3)
    for i, ssd in enumerate(node.compstors):
        put_device_file(node, ssd, "f.txt", f"fox {i}\n".encode() * (i + 1))

    def flow():
        responses = yield from node.client.gather(
            [(f"compstor{i}", Command(command_line="grep fox f.txt")) for i in range(3)]
        )
        return responses

    responses = drive(node, flow())
    assert [r.stdout for r in responses] == [b"1", b"2", b"3"]


def test_concurrent_minions_on_one_device_share_cores():
    node = build_node(devices=1)
    ssd = node.compstors[0]
    for i in range(4):
        put_device_file(node, ssd, f"f{i}.txt", b"fox line\n" * 2000)

    def flow():
        t0 = node.sim.now
        responses = yield from node.client.gather(
            [("compstor0", Command(command_line=f"grep fox f{i}.txt")) for i in range(4)]
        )
        return responses, node.sim.now - t0

    responses, elapsed = drive(node, flow())
    assert all(r.ok for r in responses)
    # 4 tasks on 4 cores: wall time must be far below 4x serial
    serial = sum(r.execution_seconds for r in responses)
    assert elapsed < 0.6 * serial


def test_storage_node_describe():
    node = build_node(devices=2, with_baseline_ssd=True)
    info = node.describe()
    assert len(info["devices"]) == 2
    assert info["devices"][0]["isc"] is True
    assert info["baseline_ssd"]["isc"] is False
    assert info["fabric_endpoints"] == 3
    assert "E5-2620" in info["host"]["cpu"]


def test_client_rejects_non_isc_device():
    from repro.host import InSituClient
    from repro.host.insitu import InSituError
    from repro.sim import Simulator
    from repro.ssd import ConventionalSSD
    from repro.ssd.conventional import small_geometry

    sim = Simulator()
    plain = ConventionalSSD(sim, geometry=small_geometry(8 * 1024 * 1024))
    client = InSituClient(sim)
    with pytest.raises(InSituError, match="no in-situ capability"):
        client.attach(plain.controller)


def test_isolation_reads_unaffected_by_compute():
    """The headline Table I property: storage latency does not degrade while
    the ISPS computes."""
    import numpy as np

    from repro.nvme import NvmeCommand, Opcode

    def read_latencies(node, n=30):
        ssd = node.compstors[0]
        qp = ssd.controller.queue(0)
        latencies = []

        def flow():
            for lpn in range(n):
                completion = yield from qp.call(NvmeCommand(opcode=Opcode.READ, slba=lpn))
                latencies.append(completion.latency)

        # pre-write so reads hit real pages
        def setup():
            for lpn in range(n):
                yield from ssd.ftl.write(lpn, b"data")
            yield from ssd.ftl.flush()

        node.sim.run(node.sim.process(setup()))
        return flow, latencies

    # baseline: reads on an idle device
    node_a = build_node(devices=1, seed=7)
    flow_a, lat_a = read_latencies(node_a)
    node_a.sim.run(node_a.sim.process(flow_a()))

    # treatment: identical reads while a big in-situ grep runs
    node_b = build_node(devices=1, seed=7)
    ssd_b = node_b.compstors[0]
    put_device_file(node_b, ssd_b, "big.txt", b"fox line here\n" * 20000)
    flow_b, lat_b = read_latencies(node_b)

    def busy_and_read():
        compute = node_b.sim.process(node_b.client.run("compstor0", "grep fox big.txt"))
        yield node_b.sim.timeout(1e-3)  # compute is well underway
        yield from flow_b()
        yield compute

    node_b.sim.run(node_b.sim.process(busy_and_read()))
    # ISPS compute is allowed a little flash-channel interference, nothing more
    assert np.median(lat_b) < 1.5 * np.median(lat_a)


def test_minion_watchdog_timeout_kills_runaway_task():
    """A command with a deadline is killed by the agent's watchdog and the
    client receives a TIMEOUT response; the device stays healthy."""
    node = build_node(devices=1)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "big.txt", b"slow scan fodder line\n" * 50000)

    def flow():
        # bzip2 of ~1 MB at ARM speeds takes ~0.6 s in-situ; 10 ms deadline
        response = yield from node.client.run(
            "compstor0", "bzip2 big.txt", timeout_seconds=0.01
        )
        return response

    response = drive(node, flow())
    assert response.status == ResponseStatus.TIMEOUT
    assert b"killed" in response.stdout
    # the device still serves new minions afterwards
    put_device_file(node, ssd, "ok.txt", b"fox\n")

    def again():
        return (yield from node.client.run("compstor0", "grep fox ok.txt"))

    assert drive(node, again()).ok


def test_minion_completes_before_watchdog():
    node = build_node(devices=1)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "small.txt", b"fox\n")

    def flow():
        return (
            yield from node.client.run(
                "compstor0", "grep fox small.txt", timeout_seconds=30.0
            )
        )

    response = drive(node, flow())
    assert response.ok
    assert response.stdout == b"1"
    # the deadline does not hold the run open past the finished minion: the
    # run drains after the tracker's last poll, not at the 30 s deadline
    node.sim.run()
    assert node.sim.now < 0.05
    assert ssd.agent.watchdog_kills == 0


def test_watchdog_does_not_keep_finished_minions_alive():
    """A deadline far in the future holds only its minion's pid: once the
    minion exits, nothing keeps its process record, kernel process,
    generator or exit status alive."""
    node = build_node(devices=1)
    ssd = node.compstors[0]
    put_device_file(node, ssd, "small.txt", b"fox\n")

    def flow():
        for _ in range(50):
            response = yield from node.client.run(
                "compstor0", "grep fox small.txt", timeout_seconds=30.0
            )
            assert response.ok
        return response

    drive(node, flow())
    node.sim.run()
    assert ssd.isps.os.process_table == {}
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, OsProcess)]
    assert ssd.agent.watchdog_kills == 0


def test_watchdog_kills_a_minion_blocked_forever():
    """A minion waiting on an event that never fires is still killed at its
    deadline: the tracker's polls keep the run live until the daemon
    deadline fires."""
    node = build_node(devices=1)
    ssd = node.compstors[0]

    class StuckApp:
        name = "stuck"

        def run(self, ctx):
            yield ctx.sim.event(name="never")
            return ExitStatus(code=0)

    ssd.isps.os.install_executable(StuckApp())

    def flow():
        return (
            yield from node.client.run("compstor0", "stuck", timeout_seconds=0.05)
        )

    response = drive(node, flow())
    assert response.status == ResponseStatus.TIMEOUT
    assert 0.05 <= node.sim.now < 0.06
    assert ssd.agent.watchdog_kills == 1
    assert ssd.isps.os.process_table == {}


def test_negative_timeout_rejected():
    import pytest

    from repro.proto import Command

    with pytest.raises(ValueError):
        Command(command_line="ls", timeout_seconds=-1.0)


def test_script_with_unknown_binary_rejected():
    node = build_node(devices=1)

    def flow():
        return (yield from node.client.run("compstor0", script="ls\nnosuchtool --x"))

    response = drive(node, flow())
    assert response.status == ResponseStatus.REJECTED


def test_script_with_crash_reported():
    from repro.isos.loader import ExitStatus

    class BoomApp:
        name = "boom"

        def run(self, ctx):
            yield from ctx.compute(1e3)
            raise RuntimeError("kaboom")

    node = build_node(devices=1)
    node.compstors[0].isps.os.install_executable(BoomApp())

    def flow():
        return (yield from node.client.run("compstor0", script="ls\nboom"))

    response = drive(node, flow())
    assert response.status == ResponseStatus.CRASHED
    assert b"kaboom" in response.stdout
