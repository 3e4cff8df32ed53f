"""Unit tests for the metrics registry, instruments, and exporters."""

import json

import pytest

from repro.obs import MetricsRegistry, NULL_METRICS, to_json_lines, to_prometheus
from repro.obs.metrics import DEFAULT_BUCKETS


# -- counters -----------------------------------------------------------------

def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    counter = registry.counter("ftl.host_reads", "reads")
    counter.inc(device="d0")
    counter.inc(3, device="d0")
    counter.inc(device="d1")
    assert counter.value(device="d0") == 4
    assert counter.value(device="d1") == 1
    assert counter.total() == 5


def test_counter_rejects_negative():
    counter = MetricsRegistry().counter("c")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_bound_counter_shares_state_with_family():
    registry = MetricsRegistry()
    counter = registry.counter("nvme.commands")
    counter.inc(device="d0", opcode="READ")
    counter.inc(2, opcode="READ", device="d0")
    # label order must not matter: both calls feed one series of the family
    assert counter.value(device="d0", opcode="READ") == 3
    assert counter.value(opcode="READ", device="d0") == 3
    assert registry.counter("nvme.commands") is counter
    assert counter.total() == 3


# -- gauges -------------------------------------------------------------------

def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("queue.depth")
    gauge.set(4, queue=0)
    gauge.add(-1, queue=0)
    assert gauge.value(queue=0) == 3
    gauge.set(7, queue=1)
    gauge.add(1, queue=1)
    assert gauge.value(queue=1) == 8


# -- views --------------------------------------------------------------------

class _Component:
    def __init__(self):
        self.reads = 0
        self.by_status = {}
        self.depth = 0


def test_counter_view_reads_the_component_at_sampling_time():
    t = [0.0]
    registry = MetricsRegistry(clock=lambda: t[0], keep_series=True)
    part = _Component()
    registry.counter_view("c.reads", "reads", lambda: part.reads, device="d0")
    view = registry["c.reads"]
    assert view.kind == "counter"
    assert view.samples() == []  # a counter view exports non-zero values only
    assert view.get(device="d0") is None
    part.reads = 4
    t[0] = 2.5
    assert view.samples() == [({"device": "d0"}, 4.0, 2.5)]
    assert view.value(device="d0") == 4.0 and view.total() == 4.0
    [record] = [json.loads(line) for line in to_json_lines(registry).splitlines()]
    assert record["value"] == 4.0 and isinstance(record["value"], float)
    assert record["time"] == 2.5  # the registry clock at export
    assert '"value": 4.0' in to_json_lines(registry)
    assert 'repro_c_reads_total{device="d0"} 4\n' in to_prometheus(registry)
    assert registry.series("c.reads", device="d0") == []  # no series history


def test_views_under_one_label_set_add_up_and_sort():
    registry = MetricsRegistry()
    a, b = _Component(), _Component()
    a.by_status = {("READ", "OK"): 2, ("WRITE", "OK"): 1}
    b.by_status = {("READ", "OK"): 3}
    for part in (a, b):  # e.g. compstor0 on node0 and on node1
        registry.counter_view("cmds", "", lambda part=part: part.by_status,
                              keys=("opcode", "status"), device="d0")
    view = registry["cmds"]
    assert view.value(device="d0", opcode="READ", status="OK") == 5.0
    assert [labels for labels, _, _ in view.samples()] == [
        {"device": "d0", "opcode": "READ", "status": "OK"},
        {"device": "d0", "opcode": "WRITE", "status": "OK"},
    ]
    assert view.total() == 6.0


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
        registry.counter("x")


# -- histograms ----------------------------------------------------------------

def test_histogram_count_sum_percentiles():
    hist = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    for v in (0.0005, 0.002, 0.005, 0.05, 0.5):
        hist.observe(v, device="d0")
    assert hist.count(device="d0") == 5
    assert hist.mean(device="d0") == pytest.approx(0.5575 / 5)
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
    counter = registry.counter("c")
    gauge = registry.gauge("g")
    hist = registry.histogram("h")
    counter.inc(device="d0")
    gauge.set(1)
    hist.observe(0.5)
    registry.counter_view("v", "", lambda: 1)
    assert counter.samples() == []
    assert gauge.samples() == []
    assert hist.samples() == []
    assert "v" not in registry  # a disabled registry holds no view


def test_null_metrics_is_shared_and_disabled():
    assert NULL_METRICS.enabled is False
    NULL_METRICS.counter("anything").inc()
    assert NULL_METRICS.counter("anything").samples() == []


def test_registry_memoizes_and_rejects_kind_mismatch():
    registry = MetricsRegistry()
    a = registry.counter("x")
    assert registry.counter("x") is a
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_registry_names_prefix_filter():
    registry = MetricsRegistry()
    registry.counter("ftl.reads")
    registry.counter("ftl.writes")
    registry.counter("nvme.commands")
    assert registry.names("ftl.") == ["ftl.reads", "ftl.writes"]
    assert "nvme.commands" in registry


def test_registry_clock_stamps_samples():
    t = [0.0]
    registry = MetricsRegistry(clock=lambda: t[0])
    counter = registry.counter("c")
    counter.inc()
    t[0] = 2.5
    counter.inc()
    [(labels, value, updated)] = counter.samples()
    assert updated == 2.5
    assert value == 2


def test_keep_series_records_bounded_history():
    t = [0.0]
    registry = MetricsRegistry(clock=lambda: t[0], keep_series=True, series_limit=3)
    counter = registry.counter("c")
    for i in range(5):
        t[0] = float(i)
        counter.inc()
    points = registry.series("c")
    assert len(points) == 3  # ring-capped
    assert points[-1] == (4.0, 5.0)
    assert points[0] == (2.0, 3.0)  # oldest points evicted


# -- exporters -----------------------------------------------------------------

def build_populated_registry():
    registry = MetricsRegistry(clock=lambda: 1.0)
    registry.counter("ftl.gc.collections", "GC runs").inc(2, device="d0")
    registry.gauge("ftl.write_amplification").set(1.25, device="d0")
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
    registry.counter("jobs.completed").inc(job='say "hi"\\n', path="a\nb")
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
