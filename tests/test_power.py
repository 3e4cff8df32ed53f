"""Unit tests for the power meter."""

import pytest

from repro.power import PowerMeter
from repro.sim import Simulator


def test_active_energy_accumulates():
    sim = Simulator()
    meter = PowerMeter(sim)
    meter.sink("flash", 0.5)
    meter.sink("flash", 0.25)
    meter.sink("cpu", 1.0)
    assert meter._active["flash"] == pytest.approx(0.75)
    assert sum(meter._active.values()) == pytest.approx(1.75)


def test_static_power_integrates_over_window():
    sim = Simulator()
    meter = PowerMeter(sim)
    meter.register_static("platform", 50.0)
    mark = meter.snapshot()
    sim.process(iter_timeout(sim, 2.0))
    sim.run()
    report = meter.window(mark)
    assert report.seconds == pytest.approx(2.0)
    assert report.static_j["platform"] == pytest.approx(100.0)
    assert report.total_j == pytest.approx(100.0)


def iter_timeout(sim, t):
    yield sim.timeout(t)


def test_window_isolates_interval():
    sim = Simulator()
    meter = PowerMeter(sim)
    meter.sink("cpu", 5.0)  # before the window
    mark = meter.snapshot()
    meter.sink("cpu", 2.0)
    report = meter.window(mark)
    assert report.active_j == {"cpu": pytest.approx(2.0)}


def test_subset_by_prefix():
    sim = Simulator()
    meter = PowerMeter(sim)
    meter.register_static("host.platform", 10.0)
    mark = meter.snapshot()
    meter.sink("ssd0.flash", 1.0)
    meter.sink("ssd0.isps", 2.0)
    meter.sink("host.cpu", 4.0)
    sim.process(iter_timeout(sim, 1.0))
    sim.run()
    report = meter.window(mark)
    assert report.subset(["ssd0"]) == pytest.approx(3.0)
    assert report.subset(["host"]) == pytest.approx(14.0)


def test_validation():
    sim = Simulator()
    meter = PowerMeter(sim)
    with pytest.raises(ValueError):
        meter.sink("x", -1.0)
    with pytest.raises(ValueError):
        meter.register_static("x", -5.0)
    meter.register_static("x", 5.0)
    with pytest.raises(ValueError):
        meter.register_static("x", 5.0)  # duplicate
