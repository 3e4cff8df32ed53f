#!/usr/bin/env python3
"""Selection/aggregation query pushdown (the Smart SSD scenario).

Do et al. (SIGMOD'13) ported a SELECT+aggregate into an SSD with "significant
modifications" to the database.  The paper's argument: with a Linux-powered
drive the same pushdown is just another executable.  This example runs

    SELECT COUNT(*), SUM(col4), MIN(col4), MAX(col4)
    FROM sales WHERE col2 > threshold

two ways — in-situ (`selectq`, a stock executable on every CompStor) and on
the host (table pulled over NVMe/PCIe) — and compares result sizes, time and
device energy.

Run:  python examples/sql_pushdown.py
"""

from repro.baselines import HostOnlyRunner
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.workloads import CsvTable, TableSpec

SPEC = TableSpec(rows=40_000, columns=6, value_range=(0.0, 1000.0))
QUERY = "selectq 2 gt 750 4 sales.csv"


def main() -> None:
    table = CsvTable(SPEC)
    blob = table.to_csv_bytes()
    truth = table.expected_selection(2, "gt", 750.0, 4)
    print(f"table: {SPEC.rows} rows x {SPEC.columns} cols, {len(blob) / 1e6:.2f} MB CSV")
    print(f"ground truth: {truth['count']} rows selected, sum={truth['sum']:.6g}\n")

    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=64 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=True),
    ))
    sim = node.sim

    def stage():
        yield from node.compstors[0].fs.write_file("sales.csv", blob)
        yield from node.compstors[0].ftl.flush()
        yield from node.host.require_os().fs.write_file("sales.csv", blob)
        yield from node.baseline_ssd.ftl.flush()

    sim.run(sim.process(stage()))

    # -- in-situ pushdown ---------------------------------------------------
    mark = node.meter.snapshot()

    def pushdown():
        start = sim.now
        response = yield from node.client.run("compstor0", QUERY)
        return response, sim.now - start

    response, device_seconds = sim.run(sim.process(pushdown()))
    device_j = node.meter.window(mark).subset(["compstor0"])
    assert response.ok
    assert response.detail["rows_selected"] == truth["count"]

    # -- host-side scan ----------------------------------------------------
    runner = HostOnlyRunner(node)
    mark = node.meter.snapshot()

    def host_scan():
        return (yield from runner.run(QUERY))

    status, host_seconds = sim.run(sim.process(host_scan()))
    host_j = node.meter.window(mark).subset(["host", "baseline-ssd", "fabric"])
    assert status.detail["rows_selected"] == truth["count"]

    result_bytes = len(response.stdout) + 256  # + envelope
    print(f"{'':24s}{'in-situ':>12s}{'host pull':>12s}")
    print(f"{'query time (ms)':24s}{device_seconds * 1e3:>12.2f}{host_seconds * 1e3:>12.2f}")
    print(f"{'bytes over PCIe':24s}{result_bytes:>12d}{len(blob):>12d}")
    print(f"{'energy (J)':24s}{device_j:>12.4f}{host_j:>12.4f}")
    print(f"\nresult: {response.stdout.decode()}")
    print(f"PCIe traffic reduction: {len(blob) / result_bytes:,.0f}x; "
          f"energy advantage: {host_j / device_j:.1f}x")


if __name__ == "__main__":
    main()
