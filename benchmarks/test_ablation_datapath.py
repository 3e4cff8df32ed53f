"""Ablation — the direct ISPS->flash data path vs the host's NVMe path.

DESIGN.md decision under test: the flash access device driver gives the
ISPS a lower-cost path to the media than the host's (NVMe command + queue +
PCIe DMA) path.  We scan the same file from both sides with the *same*
cycle cost disabled (cat, ~zero compute) so the measured gap is pure data
path.
"""

from repro.analysis.experiments import format_series_table, throughput_mb_s
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node

FILE_BYTES = 4 * 1024 * 1024


def test_ablation_datapath(benchmark):
    def experiment():
        node = build_node(ScenarioConfig(
            flash=FlashConfig(capacity_bytes=32 * 1024 * 1024, store_data=False),
            fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=True),
        ))
        sim = node.sim
        ssd = node.compstors[0]
        host_fs = node.host.require_os().fs

        def stage():
            yield from ssd.fs.write_file("payload.bin", None, size=FILE_BYTES)
            yield from ssd.ftl.flush()
            yield from host_fs.write_file("payload.bin", None, size=FILE_BYTES)
            yield from node.baseline_ssd.ftl.flush()

        sim.run(sim.process(stage()))

        def in_situ():
            start = sim.now
            response = yield from node.client.run("compstor0", "sha1sum payload.bin")
            assert response.ok or response.exit_code == 0
            return sim.now - start

        device_seconds = sim.run(sim.process(in_situ()))

        def host_side():
            start = sim.now
            status, _ = yield from node.host.require_os().run("sha1sum payload.bin")
            assert status.code == 0
            return sim.now - start

        host_seconds = sim.run(sim.process(host_side()))
        return device_seconds, host_seconds

    device_seconds, host_seconds = benchmark.pedantic(experiment, rounds=1, iterations=1)

    device_tp = throughput_mb_s(FILE_BYTES, device_seconds)
    host_tp = throughput_mb_s(FILE_BYTES, host_seconds)
    print("\n" + format_series_table(
        "Ablation — same scan, two data paths",
        ["path", "seconds", "MB/s"],
        [
            ["ISPS direct (flash access driver)", device_seconds, device_tp],
            ["host (NVMe + PCIe)", host_seconds, host_tp],
        ],
    ))

    # Per-byte data-path cost must favour the in-situ side even though the
    # host CPU is faster: sha1 at 9 cpb on Xeon vs 28 cpb on A53 leaves the
    # scan IO-dominated, so the device's cheaper path shows through in
    # efficiency: compare data-path overhead = time - pure-compute time.
    from repro.analysis.calibration import ARM_ISA, XEON_ISA, cycles_for
    from repro.cpu import ARM_A53_QUAD, XEON_E5_2620_V4

    device_compute = cycles_for("sha1sum", ARM_ISA, FILE_BYTES) / ARM_A53_QUAD.freq_hz
    host_compute = cycles_for("sha1sum", XEON_ISA, FILE_BYTES) / XEON_E5_2620_V4.freq_hz
    device_path = device_seconds - device_compute
    host_path = host_seconds - host_compute
    print(f"data-path overhead: ISPS {device_path * 1e3:.2f} ms, "
          f"host {host_path * 1e3:.2f} ms")
    assert device_path < host_path
