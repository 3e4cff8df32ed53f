"""Tests for the selection/aggregation pushdown app and CSV tables."""

import pytest

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node, preset
from repro.workloads import CsvTable, TableSpec


def build(table: CsvTable):
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1),
    ))
    sim = node.sim

    def stage():
        yield from node.compstors[0].fs.write_file("table.csv", table.to_csv_bytes())
        yield from node.compstors[0].ftl.flush()

    sim.run(sim.process(stage()))
    return node


def run_query(node, query: str):
    def flow():
        return (yield from node.client.run("compstor0", query))

    return node.sim.run(node.sim.process(flow()))


def test_selectq_matches_ground_truth():
    table = CsvTable(TableSpec(rows=2000, columns=4))
    node = build(table)
    response = run_query(node, "selectq 1 gt 500 2 table.csv")
    truth = table.expected_selection(1, "gt", 500.0, 2)
    assert response.ok
    assert response.detail["rows_selected"] == truth["count"]
    assert response.detail["rows_seen"] == 2000
    assert response.detail["sum"] == pytest.approx(truth["sum"], rel=1e-9)


@pytest.mark.parametrize("op", ["eq", "ne", "lt", "le", "gt", "ge"])
def test_selectq_all_operators(op):
    table = CsvTable(TableSpec(rows=300, columns=3, integer=True,
                               value_range=(0, 10)))
    node = build(table)
    response = run_query(node, f"selectq 0 {op} 5 1 table.csv")
    truth = table.expected_selection(0, op, 5.0, 1)
    assert response.detail["rows_selected"] == truth["count"]


def test_selectq_empty_result():
    table = CsvTable(TableSpec(rows=100, columns=2, value_range=(0, 10)))
    node = build(table)
    response = run_query(node, "selectq 0 gt 99999 1 table.csv")
    assert response.ok
    assert response.stdout == b"count=0"


def test_selectq_result_is_tiny_compared_to_table():
    """The pushdown point: gigabyte-class scan, byte-class result."""
    table = CsvTable(TableSpec(rows=5000, columns=6))
    node = build(table)
    response = run_query(node, "selectq 3 ge 250 4 table.csv")
    assert response.detail["bytes_scanned"] > 100 * len(response.stdout)


def test_selectq_malformed_rows_counted_not_fatal():
    node = build_node(preset("smoke"))
    data = b"1,2,3\nnot,a,number\n4,5,6\n7,8\n"  # two bad rows
    node.sim.run(node.sim.process(node.compstors[0].fs.write_file("t.csv", data)))
    response = run_query(node, "selectq 0 ge 0 2 t.csv")
    assert response.ok
    assert response.detail["rows_seen"] == 4
    assert response.detail["rows_selected"] == 2
    assert response.detail["malformed"] == 2


def test_selectq_usage_errors():
    node = build_node(preset("smoke"))
    node.sim.run(node.sim.process(node.compstors[0].fs.write_file("t.csv", b"1,2\n")))
    for bad in (
        "selectq 0 gt 5 t.csv",  # missing agg col
        "selectq 0 zz 5 1 t.csv",  # unknown operator
        "selectq x gt 5 1 t.csv",  # non-integer column
    ):
        response = run_query(node, bad)
        assert response.exit_code == 2, bad


def test_row_spanning_page_boundary_parsed_once():
    node = build_node(preset("smoke"))
    page = node.compstors[0].fs.page_size
    filler = b"1,1\n" * ((page - 6) // 4)
    data = filler + b"500,9\n" + b"2,2\n"
    node.sim.run(node.sim.process(node.compstors[0].fs.write_file("t.csv", data)))
    response = run_query(node, "selectq 0 eq 500 1 t.csv")
    assert response.detail["rows_selected"] == 1


# -- table generator --------------------------------------------------------------

def test_table_deterministic():
    a = CsvTable(TableSpec(rows=10, seed=5)).to_csv_bytes()
    b = CsvTable(TableSpec(rows=10, seed=5)).to_csv_bytes()
    assert a == b


def test_table_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(rows=0)
    with pytest.raises(ValueError):
        TableSpec(value_range=(5.0, 5.0))


def test_table_integer_mode():
    table = CsvTable(TableSpec(rows=5, columns=2, integer=True))
    blob = table.to_csv_bytes()
    assert b"." not in blob
