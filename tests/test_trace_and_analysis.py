"""Unit tests for tracing and the analysis helpers."""

import pytest

from repro.analysis import format_series_table, linear_fit, throughput_mb_s
from repro.sim import Tracer
from repro.sim.trace import TraceRecord


# -- tracer -------------------------------------------------------------------

def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.emit(1.0, "dev0.flash", "flash.read", addr=1)
    tracer.emit(2.0, "dev0.agent", "minion.received", minion=7)
    tracer.emit(3.0, "dev1.flash", "flash.read", addr=2)

    assert len(tracer.records) == 3
    assert len(tracer.filter(kind="flash.read")) == 2
    assert len(tracer.filter(component="dev0")) == 2
    assert len(tracer.filter(kind="flash.read", component="dev1")) == 1
    assert tracer.filter(predicate=lambda r: r.detail.get("minion") == 7)[0].time == 2.0


def test_disabled_tracer_is_noop():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, "x", "y")
    assert len(tracer.records) == 0


def test_tracer_capacity_drops_and_counts():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.emit(float(i), "x", "k")
    assert len(tracer.records) == 2


def test_tracer_ring_buffer_keeps_newest_records():
    """Regression: a full bounded tracer used to drop *new* records, leaving
    the log stuck on the oldest window — useless for long-running monitoring.
    It now evicts the oldest record instead."""
    tracer = Tracer(capacity=3)
    for i in range(7):
        tracer.emit(float(i), "x", "k", i=i)
    assert [r.detail["i"] for r in tracer.records] == [4, 5, 6]


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_tracer_clear():
    tracer = Tracer(capacity=1)
    tracer.emit(0.0, "x", "k")
    tracer.emit(0.0, "x", "k")
    tracer.clear()
    assert len(tracer.records) == 0


def test_empty_tracer_is_still_truthy_enough_to_wire():
    """Regression: Tracer defines __len__, so `tracer or NULL_TRACER` used
    to silently discard enabled-but-empty tracers."""
    from repro.sim.trace import NULL_TRACER

    tracer = Tracer()
    chosen = tracer if tracer is not None else NULL_TRACER
    assert chosen is tracer


def test_trace_record_is_frozen():
    record = TraceRecord(1.0, "c", "k")
    with pytest.raises(AttributeError):
        record.time = 2.0


# -- analysis helpers -------------------------------------------------------------

def test_linear_fit_recovers_exact_line():
    a, b, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        linear_fit([1], [2])
    with pytest.raises(ValueError):
        linear_fit([1, 2], [1])


def test_linear_fit_r2_degrades_with_noise():
    _, _, clean = linear_fit([1, 2, 3, 4], [2, 4, 6, 8])
    _, _, noisy = linear_fit([1, 2, 3, 4], [2, 7, 5, 8])
    assert clean > noisy


def test_throughput_mb_s():
    assert throughput_mb_s(2e6, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        throughput_mb_s(1.0, 0.0)


def test_format_series_table_alignment():
    table = format_series_table("T", ["col", "value"], [["a", 1.5], ["bbbb", 22.25]])
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "col" in lines[2]
    assert "bbbb" in lines[4]
    # all rows align to the same width
    assert len(lines[3].rstrip()) <= len(lines[4])


def test_format_series_table_empty_rows():
    table = format_series_table("T", ["a"], [])
    assert "a" in table


# -- telemetry -------------------------------------------------------------------

def test_telemetry_load_score_ordering():
    from repro.isps import TelemetrySnapshot

    idle = TelemetrySnapshot(
        device="d0", time=0.0, core_utilization=0.1, temperature_c=40.0,
        running_processes=0, active_minions=0, uptime=1.0, free_bytes=100,
    )
    busy = TelemetrySnapshot(
        device="d1", time=0.0, core_utilization=0.2, temperature_c=50.0,
        running_processes=3, active_minions=2, uptime=1.0, free_bytes=100,
    )
    assert busy.load_score() > idle.load_score()
    # minions dominate utilisation
    hot_cores = TelemetrySnapshot(
        device="d2", time=0.0, core_utilization=0.95, temperature_c=70.0,
        running_processes=1, active_minions=0, uptime=1.0, free_bytes=100,
    )
    one_minion = TelemetrySnapshot(
        device="d3", time=0.0, core_utilization=0.0, temperature_c=40.0,
        running_processes=1, active_minions=1, uptime=1.0, free_bytes=100,
    )
    assert one_minion.load_score() > hot_cores.load_score()
