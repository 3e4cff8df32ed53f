"""Fleet health aggregation: percentiles, alerts, SMART folding, fleet rollup."""

import pytest

from repro.isps import TelemetrySnapshot
from repro.obs import FleetHealth, HealthAggregator, MetricsRegistry


def snap(device="d0", utilization=0.2, temperature=40.0, minions=0,
         processes=0, free=1000, time=1.0):
    return TelemetrySnapshot(
        device=device, time=time, core_utilization=utilization,
        temperature_c=temperature, running_processes=processes,
        active_minions=minions, uptime=time, free_bytes=free,
    )


def smart(bad_blocks=0, media_errors=0, percentage_used=0, wa=1.0, gc=0):
    return {
        "bad_blocks": bad_blocks,
        "media_errors": media_errors,
        "percentage_used": percentage_used,
        "write_amplification": wa,
        "gc_collections": gc,
    }


def test_summary_requires_observations():
    with pytest.raises(ValueError):
        HealthAggregator().summary()


def test_rollup_across_nodes_and_devices():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap("d0", utilization=0.2, minions=1, free=100))
    agg.observe_device(0, "d1", snap("d1", utilization=0.4, minions=2, free=200))
    agg.observe_device(1, "d0", snap("d0", utilization=0.6, temperature=50.0, free=300))
    health = agg.summary()
    assert isinstance(health, FleetHealth)
    assert health.nodes == 2
    assert health.devices == 3
    assert health.active_minions == 3
    assert health.mean_utilization == pytest.approx(0.4)
    assert health.max_utilization == pytest.approx(0.6)
    assert health.per_node_utilization == {0: pytest.approx(0.3), 1: pytest.approx(0.6)}
    assert health.max_temperature_c == 50.0
    assert health.total_free_bytes == 600


def test_reobserving_a_device_replaces_it():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap(minions=5))
    agg.observe_device(0, "d0", snap(minions=1, time=2.0))
    health = agg.summary()
    assert health.devices == 1
    assert health.active_minions == 1
    assert health.time == 2.0


def test_unreachable_devices_count_as_nodes_and_devices():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap("d0"))
    agg.observe_unreachable(0, "d1")
    agg.observe_unreachable(1, "d0")
    health = agg.summary()
    assert (health.nodes, health.devices) == (2, 3)
    assert health.rows()[0] == ["nodes / devices", "2 / 3"]
    everything_down = HealthAggregator()
    everything_down.observe_unreachable(0, "d0")
    everything_down.observe_unreachable(1, "d0")
    health = everything_down.summary()
    assert (health.nodes, health.devices) == (2, 2)


def test_latency_percentiles_from_raw_samples():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap())
    agg.observe_minion_latencies([i / 1000 for i in range(1, 101)])  # 1..100 ms
    health = agg.summary()
    assert health.minion_latency_samples == 100
    assert health.minion_latency_p50 == pytest.approx(0.0505, rel=0.01)
    assert health.minion_latency_p95 <= health.minion_latency_p99
    assert health.minion_latency_p99 <= 0.100 + 1e-9


def test_latency_percentiles_fall_back_to_histogram():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    for _ in range(90):
        hist.observe(0.005, device="d0")
    for _ in range(10):
        hist.observe(0.5, device="d1")
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap())
    agg.observe_latency_histogram(hist)
    health = agg.summary()
    assert health.minion_latency_samples == 100
    assert 0.001 < health.minion_latency_p50 <= 0.01
    assert health.minion_latency_p99 > 0.1


def test_smart_folding_sums_and_maxes():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap("d0"), smart=smart(bad_blocks=2, gc=10, wa=1.5))
    agg.observe_device(0, "d1", snap("d1"),
                       smart=smart(bad_blocks=1, media_errors=3, gc=5, wa=2.5,
                                   percentage_used=40))
    health = agg.summary()
    assert health.grown_bad_blocks == 3
    assert health.media_errors == 3
    assert health.gc_collections == 15
    assert health.max_write_amplification == 2.5
    assert health.max_percentage_used == 40


def test_alerts_fire_on_thresholds():
    agg = HealthAggregator(utilization_warn=0.9, temperature_warn_c=80.0,
                           percentage_used_warn=90)
    agg.observe_device(0, "hot", snap("hot", utilization=0.95, temperature=85.0),
                       smart=smart(bad_blocks=4, percentage_used=95))
    agg.observe_device(0, "fine", snap("fine"))
    health = agg.summary()
    joined = " ".join(health.alerts)
    assert "node0/hot: cores saturated" in joined
    assert "hot (85C)" in joined
    assert "wear 95%" in joined
    assert "4 grown bad blocks" in joined
    assert "fine" not in joined


def test_health_rows_render_every_attribute():
    agg = HealthAggregator()
    agg.observe_device(0, "d0", snap())
    rows = agg.summary().rows()
    keys = [r[0] for r in rows]
    assert "minion latency p50/p95/p99" in keys
    assert "grown bad blocks" in keys
    assert all(len(r) == 2 for r in rows)


# -- fleet integration ---------------------------------------------------------

def test_fleet_health_end_to_end():
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
    from repro.proto import Command
    from repro.workloads import BookCorpus, CorpusSpec

    metrics = MetricsRegistry()
    fleet = build_fleet(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2),
    ), metrics=metrics)
    sim = fleet.sim
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=32 * 1024)).generate()
    sim.run(sim.process(fleet.stage_corpus(books)))

    def flow():
        yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        )
        health = yield from fleet.health()
        return health

    health = sim.run(sim.process(flow()))
    assert health.nodes == 2
    assert health.devices == 4
    # latencies came from the client round-trip histogram automatically
    assert health.minion_latency_samples == 4
    assert health.minion_latency_p50 > 0
    # SMART pages were folded in (staging wrote to every device)
    assert health.max_write_amplification >= 1.0
