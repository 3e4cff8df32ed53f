"""Unit tests for the metrics registry, instruments, and exporters."""

import json

import pytest

from repro.obs import MetricsRegistry, NULL_METRICS, to_json_lines, to_prometheus
from repro.obs.metrics import DEFAULT_BUCKETS


def sample(instrument, default=None, **labels):
    """What ``instrument`` exports under exactly ``labels`` (a histogram's
    per-label-set state), or ``default``."""
    want = {key: str(value) for key, value in labels.items()}
    return next((value for got, value, _ in instrument.samples() if got == want), default)


def total(view):
    """A view's samples summed over every label set."""
    return sum(value for _, value, _ in view.samples())


# -- views --------------------------------------------------------------------

class _Component:
    def __init__(self):
        self.reads = 0
        self.by_status = {}
        self.depth = 0


def test_counter_view_reads_the_component_at_sampling_time():
    t = [0.0]
    registry = MetricsRegistry(clock=lambda: t[0])
    part = _Component()
    registry.counter_view("c.reads", "reads", lambda: part.reads, device="d0")
    view = registry["c.reads"]
    assert view.kind == "counter"
    assert view.samples() == []  # a counter view exports non-zero values only
    assert sample(view, device="d0") is None
    part.reads = 4
    t[0] = 2.5
    assert view.samples() == [({"device": "d0"}, 4.0, 2.5)]
    assert sample(view, device="d0") == 4.0 and total(view) == 4.0
    [record] = [json.loads(line) for line in to_json_lines(registry).splitlines()]
    assert record["value"] == 4.0 and isinstance(record["value"], float)
    assert record["time"] == 2.5  # the registry clock at export
    assert '"value": 4.0' in to_json_lines(registry)
    assert 'repro_c_reads_total{device="d0"} 4\n' in to_prometheus(registry)


def test_views_under_one_label_set_add_up_and_sort():
    registry = MetricsRegistry()
    a, b = _Component(), _Component()
    a.by_status = {("READ", "OK"): 2, ("WRITE", "OK"): 1}
    b.by_status = {("READ", "OK"): 3}
    for part in (a, b):  # e.g. compstor0 on node0 and on node1
        registry.counter_view("cmds", "", lambda part=part: part.by_status,
                              keys=("opcode", "status"), device="d0")
    view = registry["cmds"]
    assert sample(view, device="d0", opcode="READ", status="OK") == 5.0
    assert [labels for labels, _, _ in view.samples()] == [
        {"device": "d0", "opcode": "READ", "status": "OK"},
        {"device": "d0", "opcode": "WRITE", "status": "OK"},
    ]
    assert total(view) == 6.0


def test_gauge_view_reads_the_current_value():
    registry = MetricsRegistry()
    part = _Component()
    registry.gauge_view("depth", "", lambda: part.depth, queue=0)
    part.depth = 4
    assert sample(registry["depth"], queue=0) == 4.0
    part.depth = 3  # a gauge goes down as well as up
    assert sample(registry["depth"], queue=0) == 3.0


def test_gauge_view_exports_zero_values():
    registry = MetricsRegistry()
    part = _Component()
    registry.gauge_view("depth", "", lambda: {0: part.depth}, keys=("queue",))
    assert registry["depth"].samples() == [({"queue": "0"}, 0.0, 0.0)]
    assert "repro_depth{queue=\"0\"} 0" in to_prometheus(registry)


def test_view_kind_mismatch_is_rejected():
    registry = MetricsRegistry()
    registry.counter_view("x", "", lambda: 1)
    with pytest.raises(ValueError):
        registry.gauge_view("x", "", lambda: 1)
    with pytest.raises(ValueError):
        registry.histogram("x")


# -- histograms ----------------------------------------------------------------

def test_histogram_series_ignore_label_order():
    registry = MetricsRegistry()
    hist = registry.histogram("nvme.latency")
    hist.observe(0.001, device="d0", opcode="READ")
    hist.observe(0.002, opcode="READ", device="d0")
    # label order must not matter: both calls feed one series of the family
    assert sample(hist, device="d0", opcode="READ").count == 2
    assert hist.aggregate_count() == 2


def test_histogram_count_sum_percentiles():
    hist = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    for v in (0.0005, 0.002, 0.005, 0.05, 0.5):
        hist.observe(v, device="d0")
    state = sample(hist, device="d0")
    assert state.count == 5
    assert state.sum == pytest.approx(0.5575)
    p50 = hist.percentile(0.50, device="d0")
    assert 0.001 < p50 <= 0.01
    # p100 clamps to the observed maximum, even inside the overflow logic
    assert hist.percentile(1.0, device="d0") <= 0.5 + 1e-9


def test_histogram_overflow_bucket_interpolates_min_to_max():
    """Regression: a distribution living entirely in the ``+Inf`` bucket
    used to collapse every quantile to the observed maximum."""
    hist = MetricsRegistry().histogram("lat", buckets=(0.001,))
    hist.observe(5.0)
    hist.observe(9.0)
    assert hist.percentile(0.0) == pytest.approx(5.0)  # true minimum
    assert hist.percentile(0.5) == pytest.approx(7.0)  # midpoint of [min, max]
    assert hist.percentile(0.99) == pytest.approx(8.96)
    assert hist.percentile(1.0) == pytest.approx(9.0)


def test_histogram_percentile_q0_returns_true_minimum():
    """Regression: ``q=0`` used to report the containing bucket's lower
    bound instead of the smallest observation."""
    hist = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01, 0.1))
    hist.observe(0.002)
    hist.observe(0.005)
    assert hist.percentile(0.0) == pytest.approx(0.002)
    # single-observation histogram: every quantile is that observation
    solo = MetricsRegistry().histogram("solo", buckets=(0.001, 0.01))
    solo.observe(0.004)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert solo.percentile(q) == pytest.approx(0.004)


def test_histogram_aggregate_percentile_merges_min():
    hist = MetricsRegistry().histogram("lat", buckets=(0.001,))
    hist.observe(5.0, device="d0")
    hist.observe(9.0, device="d1")
    assert hist.aggregate_percentile(0.0) == pytest.approx(5.0)
    assert hist.aggregate_percentile(1.0) == pytest.approx(9.0)


def test_histogram_aggregate_percentile_merges_label_sets():
    hist = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01, 0.1))
    hist.observe(0.002, device="d0")
    hist.observe(0.002, device="d1")
    hist.observe(0.05, device="d1")
    merged = hist.aggregate_percentile(0.5)
    assert 0.001 < merged <= 0.01


def test_histogram_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# -- registry ------------------------------------------------------------------

def test_disabled_registry_is_noop():
    registry = MetricsRegistry(enabled=False)
    hist = registry.histogram("h")
    hist.observe(0.5)
    registry.counter_view("v", "", lambda: 1)
    registry.gauge_view("g", "", lambda: 1)
    assert hist.samples() == []
    assert "v" not in registry and "g" not in registry  # no view is held


def test_null_metrics_is_shared_and_disabled():
    assert NULL_METRICS.enabled is False
    NULL_METRICS.histogram("anything").observe(1.0)
    assert NULL_METRICS.histogram("anything").samples() == []


def test_registry_memoizes_and_rejects_kind_mismatch():
    registry = MetricsRegistry()
    a = registry.histogram("x")
    assert registry.histogram("x") is a
    with pytest.raises(ValueError):
        registry.gauge_view("x", "", lambda: 1)


def test_registry_names_prefix_filter():
    registry = MetricsRegistry()
    registry.counter_view("ftl.reads", "", lambda: 1)
    registry.counter_view("ftl.writes", "", lambda: 1)
    registry.histogram("nvme.commands")
    assert registry.names("ftl.") == ["ftl.reads", "ftl.writes"]
    assert "nvme.commands" in registry


def test_registry_clock_stamps_samples():
    t = [0.0]
    registry = MetricsRegistry(clock=lambda: t[0])
    hist = registry.histogram("h")
    hist.observe(1.0)
    t[0] = 2.5
    hist.observe(1.0)
    [(labels, state, updated)] = hist.samples()
    assert updated == 2.5  # the clock at the last observation
    assert state.count == 2


# -- exporters -----------------------------------------------------------------

def build_populated_registry():
    registry = MetricsRegistry(clock=lambda: 1.0)
    registry.counter_view("ftl.gc.collections", "GC runs", lambda: 2, device="d0")
    registry.gauge_view("ftl.write_amplification", "", lambda: 1.25, device="d0")
    hist = registry.histogram("nvme.command.latency_seconds", buckets=(0.001, 0.01))
    hist.observe(0.0005, device="d0")
    hist.observe(0.5, device="d0")
    return registry


def test_prometheus_export_conventions():
    text = to_prometheus(build_populated_registry())
    assert "# HELP repro_ftl_gc_collections_total GC runs" in text
    assert "# TYPE repro_ftl_gc_collections_total counter" in text
    assert 'repro_ftl_gc_collections_total{device="d0"} 2' in text
    assert 'repro_ftl_write_amplification{device="d0"} 1.25' in text
    # histogram: cumulative buckets + +Inf + sum/count
    assert 'repro_nvme_command_latency_seconds_bucket{device="d0",le="0.001"} 1' in text
    assert 'repro_nvme_command_latency_seconds_bucket{device="d0",le="+Inf"} 2' in text
    assert 'repro_nvme_command_latency_seconds_count{device="d0"} 2' in text


def test_prometheus_label_values_are_escaped():
    """Regression: label values hit the exposition text unescaped, so a
    quote/backslash/newline in a value corrupted every following line."""
    registry = MetricsRegistry()
    registry.counter_view("jobs.completed", "", lambda: 1, job='say "hi"\\n', path="a\nb")
    text = to_prometheus(registry)
    assert '\\"hi\\"' in text  # " -> \"
    assert "\\\\n" in text  # literal backslash-n -> \\n
    assert "a\\nb" in text  # real newline -> \n escape sequence
    # the exposition stays line-structured: one sample line for the family
    sample_lines = [
        line for line in text.splitlines()
        if line.startswith("repro_jobs_completed_total{")
    ]
    assert len(sample_lines) == 1
    assert sample_lines[0].endswith(" 1")


def test_prometheus_histogram_sum_uses_fmt():
    """Regression: ``_sum`` was rendered with ``repr`` (``3.0`` instead of
    the exporter's canonical integer form ``3``)."""
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.5,))
    hist.observe(1.0, device="d0")
    hist.observe(2.0, device="d0")
    text = to_prometheus(registry)
    assert 'repro_lat_sum{device="d0"} 3\n' in text
    assert 'repro_lat_sum{device="d0"} 3.0' not in text


def test_json_lines_roundtrip():
    out = to_json_lines(build_populated_registry())
    records = [json.loads(line) for line in out.strip().splitlines()]
    by_name = {r["name"]: r for r in records}
    assert by_name["ftl.gc.collections"]["value"] == 2
    assert by_name["ftl.gc.collections"]["labels"] == {"device": "d0"}
    assert by_name["ftl.gc.collections"]["time"] == 1.0
    hist = by_name["nvme.command.latency_seconds"]
    assert hist["count"] == 2
    assert hist["min"] == 0.0005
    assert hist["max"] == 0.5
    assert hist["buckets"] == {"0.001": 1, "+Inf": 1}


def test_empty_registry_exports_empty():
    registry = MetricsRegistry()
    assert to_prometheus(registry) == ""
    assert to_json_lines(registry) == ""
