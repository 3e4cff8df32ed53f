"""Ablation — where does in-situ processing win?

Sweeps the compute intensity (cycles per byte) of a synthetic scan and
compares one CompStor (4 weak cores, cheap data path) against the host
(8 strong cores, expensive data path) on completion time.  The expected
shape: in-situ wins at low intensity (IO-dominated), the host wins at high
intensity (compute-dominated) — the crossover is the design space the
paper's intro describes.
"""

from repro.analysis.calibration import ARM_ISA, CYCLES_PER_BYTE, XEON_ISA
from repro.analysis.experiments import format_series_table
from repro.apps.base import StreamingApp
from repro.config import FlashConfig, FleetConfig, PcieConfig, ScenarioConfig, build_node
from repro.isos.loader import ExitStatus

FILE_BYTES = 2 * 1024 * 1024
#: synthetic intensities, cycles per byte on the Xeon (ARM scaled by 2.6x,
#: the mid-range of the calibrated A53/Xeon gaps)
INTENSITIES = (1.0, 8.0, 64.0, 512.0)
ARM_FACTOR = 2.6


class SyntheticScan(StreamingApp):
    """A scan whose per-byte cost is configured via the calibration table."""

    name = "synthscan"

    def consume(self, ctx, chunk, take):
        pass

    def finish(self, ctx, path, total_bytes):
        return ExitStatus(code=0, stdout=str(total_bytes).encode())
        yield  # pragma: no cover - generator protocol


def run_point(cpb_xeon: float) -> tuple[float, float]:
    CYCLES_PER_BYTE["synthscan"] = {
        XEON_ISA: cpb_xeon,
        ARM_ISA: cpb_xeon * ARM_FACTOR,
    }
    # a x1 endpoint link models the Fig. 1 funnel: per-device media
    # bandwidth well above what the host can pull from the device
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024, store_data=False),
        pcie=PcieConfig(endpoint_lanes=1),
        fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=True),
    ))
    sim = node.sim
    app = SyntheticScan()
    node.compstors[0].isps.os.install_executable(app)
    node.host.require_os().install_executable(app)

    def stage():
        # 4 files so both sides can use all their parallelism
        for i in range(4):
            yield from node.compstors[0].fs.write_file(
                f"p{i}.bin", None, size=FILE_BYTES // 4
            )
            yield from node.host.require_os().fs.write_file(
                f"p{i}.bin", None, size=FILE_BYTES // 4
            )
        yield from node.compstors[0].ftl.flush()
        yield from node.baseline_ssd.ftl.flush()

    sim.run(sim.process(stage()))

    def in_situ():
        from repro.proto import Command

        start = sim.now
        responses = yield from node.client.gather(
            [("compstor0", Command(command_line=f"synthscan p{i}.bin")) for i in range(4)]
        )
        assert all(r.ok for r in responses)
        return sim.now - start

    device_seconds = sim.run(sim.process(in_situ()))

    def host_side():
        os_ = node.host.require_os()
        start = sim.now
        procs = [os_.spawn(f"synthscan p{i}.bin") for i in range(4)]
        for p in procs:
            yield from os_.wait(p)
        return sim.now - start

    host_seconds = sim.run(sim.process(host_side()))
    return device_seconds, host_seconds


def test_ablation_intensity_sweep(benchmark):
    def experiment():
        return {cpb: run_point(cpb) for cpb in INTENSITIES}

    points = benchmark.pedantic(experiment, rounds=1, iterations=1)
    CYCLES_PER_BYTE.pop("synthscan", None)

    rows = []
    for cpb, (dev, host) in points.items():
        rows.append([cpb, dev * 1e3, host * 1e3, host / dev])
    print("\n" + format_series_table(
        "Ablation — in-situ vs host scan time by compute intensity",
        ["xeon cycles/B", "in-situ ms", "host ms", "host/in-situ"],
        rows,
    ))

    advantages = [host / dev for _, (dev, host) in sorted(points.items())]
    # the in-situ advantage shrinks monotonically as intensity grows...
    assert all(a >= b * 0.95 for a, b in zip(advantages, advantages[1:]))
    # ...IO-bound scans favour in-situ, compute-heavy scans favour the host
    assert advantages[0] > 1.0
    assert advantages[-1] < 1.0
