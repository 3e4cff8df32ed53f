"""Fleet health rollup: percentiles, alerts, SMART folding, fleet integration."""

import pytest

from repro.isps import TelemetrySnapshot
from repro.obs import FleetHealth, MetricsRegistry, fleet_health


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
        fleet_health([])


def test_rollup_across_nodes_and_devices():
    health = fleet_health([
        (0, "d0", snap("d0", utilization=0.2, minions=1, free=100), smart()),
        (0, "d1", snap("d1", utilization=0.4, minions=2, free=200), smart()),
        (1, "d0", snap("d0", utilization=0.6, temperature=50.0, free=300), smart()),
    ])
    assert isinstance(health, FleetHealth)
    assert health.nodes == 2
    assert health.devices == 3
    assert health.active_minions == 3
    assert health.mean_utilization == pytest.approx(0.4)
    assert health.max_utilization == pytest.approx(0.6)
    assert health.per_node_utilization == {0: pytest.approx(0.3), 1: pytest.approx(0.6)}
    assert health.max_temperature_c == 50.0
    assert health.total_free_bytes == 600


def test_unreachable_devices_count_as_nodes_and_devices():
    health = fleet_health([(0, "d0", snap("d0"), smart())], [(0, "d1"), (1, "d0")])
    assert (health.nodes, health.devices) == (2, 3)
    assert health.rows()[0] == ["nodes / devices", "2 / 3"]
    health = fleet_health([], [(0, "d0"), (1, "d0")])
    assert (health.nodes, health.devices) == (2, 2)
    # nothing to derive device fields from: they read zero
    assert (health.time, health.max_utilization, health.per_node_utilization) == (0.0, 0.0, {})
    assert health.alerts == ("node0/d0: unreachable", "node1/d0: unreachable")
    # fleet-level trouble still alerts with every device down
    health = fleet_health([], [(0, "d0")], lost_minions=3, breakers_open=("node0/d0",))
    assert health.alerts == (
        "node0/d0: unreachable",
        "node0/d0: circuit breaker open",
        "3 minions lost (no surviving replica)",
    )


def test_latency_percentiles_fall_back_to_histogram():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    for _ in range(90):
        hist.observe(0.005, device="d0")
    for _ in range(10):
        hist.observe(0.5, device="d1")
    health = fleet_health([(0, "d0", snap(), smart())], latencies=hist)
    assert health.minion_latency_samples == 100
    assert 0.001 < health.minion_latency_p50 <= 0.01
    assert health.minion_latency_p99 > 0.1


def test_latencies_survive_every_device_being_unreachable():
    """The client's round trips are reported even when no device answers."""
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    for value in (0.002, 0.005, 0.05):
        hist.observe(value, device="d0")
    down = fleet_health([], [(0, "d0")], latencies=hist)
    up = fleet_health([(0, "d0", snap(), smart())], latencies=hist)
    assert down.minion_latency_samples == 3
    assert (down.minion_latency_p50, down.minion_latency_p95, down.minion_latency_p99) == (
        up.minion_latency_p50, up.minion_latency_p95, up.minion_latency_p99,
    )
    assert down.minion_latency_p50 > 0.0
    row = dict((r[0], r[1]) for r in down.rows())["minion latency p50/p95/p99"]
    assert row.endswith("(n=3)") and not row.startswith("0.00 / 0.00 / 0.00")


def test_smart_folding_sums_and_maxes():
    health = fleet_health([
        (0, "d0", snap("d0"), smart(bad_blocks=2, gc=10, wa=1.5)),
        (0, "d1", snap("d1"),
         smart(bad_blocks=1, media_errors=3, gc=5, wa=2.5, percentage_used=40)),
    ])
    assert health.grown_bad_blocks == 3
    assert health.media_errors == 3
    assert health.gc_collections == 15
    assert health.max_write_amplification == 2.5
    assert health.max_percentage_used == 40


def test_alerts_fire_on_thresholds():
    health = fleet_health([
        (0, "hot", snap("hot", utilization=0.95, temperature=85.0),
         smart(bad_blocks=4, percentage_used=95)),
        (0, "fine", snap("fine"), smart()),
    ])
    joined = " ".join(health.alerts)
    assert "node0/hot: cores saturated" in joined
    assert "hot (85C)" in joined
    assert "wear 95%" in joined
    assert "4 grown bad blocks" in joined
    assert "fine" not in joined


def test_health_rows_render_every_attribute():
    rows = fleet_health([(0, "d0", snap(), smart())]).rows()
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
