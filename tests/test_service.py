"""Unit tests for the service frontend building blocks.

Covers the admission token buckets (including the full-bucket eviction
that bounds per-tenant state), weighted fair queuing, the traffic
generator, Jain's index, and the end-to-end accounting identities of a
full serving run (``offered == admitted + shed``,
``admitted == completed + lost``).
"""

from __future__ import annotations

import pytest

from repro.config import preset, to_dict
from repro.config.schema import (
    DEFAULT_PRIORITY_CLASSES,
    ServiceConfig,
    TrafficConfig,
)
from repro.service import (
    TenantBuckets,
    TokenBucket,
    TrafficGenerator,
    WeightedFairQueue,
    assign_class,
    jain_index,
)
from repro.service.drill import run_traffic_cell


# -- token buckets -----------------------------------------------------------


def test_token_bucket_admits_burst_then_refuses():
    bucket = TokenBucket(rate=10.0, capacity=4.0, now=0.0)
    assert [bucket.try_take(0.0) for _ in range(4)] == [True] * 4
    assert not bucket.try_take(0.0)  # bucket drained, no time has passed


def test_token_bucket_refills_at_rate():
    bucket = TokenBucket(rate=10.0, capacity=4.0, now=0.0)
    for _ in range(4):
        bucket.try_take(0.0)
    assert not bucket.try_take(0.05)  # 0.5 tokens accrued: not enough
    assert bucket.try_take(0.1 + 1e-6)  # one full token accrued
    assert not bucket.try_take(0.1 + 1e-6)


def test_tenant_bucket_eviction_never_changes_decisions():
    """A bucket that would refill to capacity is identical to a fresh one,
    so evicting it is lossless — replay the same arrivals with eviction
    every step and with no eviction, decisions must match."""
    arrivals = [(0.001 * i, i % 3) for i in range(60)]  # 3 hot tenants
    with_evict, without = TenantBuckets(), TenantBuckets()
    decisions_a, decisions_b = [], []
    for now, tenant in arrivals:
        decisions_a.append(with_evict.allow(tenant, rate=50.0, capacity=2.0, now=now))
        with_evict.evict_restorable(now)
        decisions_b.append(without.allow(tenant, rate=50.0, capacity=2.0, now=now))
    assert decisions_a == decisions_b
    assert False in decisions_a  # the hot tenants actually hit the limit


def test_tenant_buckets_state_stays_bounded():
    """A million-tenant population with single-shot tenants must not grow
    a million buckets: everyone refills to full and is evicted."""
    buckets = TenantBuckets()
    for i in range(5000):
        now = i * 0.01  # sparse arrivals: every bucket refills fully
        buckets.allow(i, rate=100.0, capacity=4.0, now=now)
        if i % 64 == 0:
            buckets.evict_restorable(now)
    assert len(buckets._buckets) < 200
    assert buckets.peak_buckets < 200
    assert buckets.evictions > 4000


# -- weighted fair queue -----------------------------------------------------


def test_wfq_serves_classes_proportionally_to_weight():
    def drain():
        queue = WeightedFairQueue({"a": 1.0, "b": 3.0})
        for i in range(6):
            queue.push("a", f"a{i}")
        for i in range(6):
            queue.push("b", f"b{i}")
        return [queue.pop() for _ in range(12)]

    order = drain()
    # the pop order is a pure function of the push order (tag, then seq)
    assert order == drain()
    classes = [cls for cls, _ in order]
    # class b (weight 3) drains its whole backlog while a gets ~1/3 as much
    assert classes[:8].count("b") >= 6
    # FIFO within each class regardless of interleaving
    assert [item for cls, item in order if cls == "a"] == [f"a{i}" for i in range(6)]
    assert [item for cls, item in order if cls == "b"] == [f"b{i}" for i in range(6)]


def test_wfq_is_fifo_within_a_class():
    queue = WeightedFairQueue({"a": 1.0})
    for i in range(5):
        queue.push("a", i)
    assert [queue.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(IndexError):
        queue.pop()


def test_wfq_rejects_bad_inputs():
    with pytest.raises(ValueError):
        WeightedFairQueue({})
    with pytest.raises(ValueError):
        WeightedFairQueue({"a": 0.0})
    queue = WeightedFairQueue({"a": 1.0})
    with pytest.raises(KeyError):
        queue.push("unknown", 1)


# -- fairness index ----------------------------------------------------------


def test_jain_index_bounds():
    assert jain_index([]) == 1.0
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)
    # one tenant hogging everything: 1/n
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)
    assert 0.25 < jain_index([4, 1, 1, 1]) < 1.0


# -- traffic generation ------------------------------------------------------


@pytest.mark.parametrize("pattern", ["poisson", "diurnal", "bursty"])
def test_traffic_generator_is_seed_deterministic(pattern):
    config = TrafficConfig(pattern=pattern, requests=100, rate=1000.0,
                           tenants=10_000, skew=2.0, seed=7)
    a = TrafficGenerator(config).arrivals()
    b = TrafficGenerator(config).arrivals()
    assert a == b
    assert len(a) == 100
    times = [arr.time for arr in a]
    assert times == sorted(times) and times[0] > 0.0
    assert all(0 <= arr.tenant < 10_000 for arr in a)
    different = TrafficGenerator(
        TrafficConfig(pattern=pattern, requests=100, rate=1000.0,
                      tenants=10_000, skew=2.0, seed=8)
    ).arrivals()
    assert different != a


def test_skew_concentrates_traffic_on_low_tenant_ids():
    uniform = TrafficGenerator(
        TrafficConfig(requests=500, tenants=1000, skew=1.0, seed=0)
    ).arrivals()
    skewed = TrafficGenerator(
        TrafficConfig(requests=500, tenants=1000, skew=8.0, seed=0)
    ).arrivals()
    mean_u = sum(a.tenant for a in uniform) / len(uniform)
    mean_s = sum(a.tenant for a in skewed) / len(skewed)
    assert mean_s < mean_u / 4


def test_assign_class_is_stable_and_respects_shares():
    classes = DEFAULT_PRIORITY_CLASSES
    first = [assign_class(t, classes) for t in range(2000)]
    assert first == [assign_class(t, classes) for t in range(2000)]
    gold = first.count("gold") / len(first)
    bronze = first.count("bronze") / len(first)
    assert 0.05 < gold < 0.15  # configured share 0.1
    assert 0.5 < bronze < 0.7  # configured share 0.6


# -- end-to-end serving ------------------------------------------------------


def test_traffic_cell_accounting_identities():
    payload = run_traffic_cell()  # the pinned traffic-smoke preset
    assert payload["requests"] == payload["admitted"] + sum(payload["shed"].values())
    assert payload["admitted"] == payload["completed"] + payload["lost"]
    assert payload["p50_ms"] <= payload["p99_ms"] <= payload["p999_ms"]
    assert 0.0 < payload["jain"] <= 1.0
    assert payload["peak_queue"] <= 32  # the preset's queue_depth
    per_class = payload["per_class"]
    assert set(per_class) == {"gold", "silver", "bronze"}
    assert sum(c["requests"] for c in per_class.values()) == payload["requests"]
    assert sum(c["completed"] for c in per_class.values()) == payload["completed"]


def test_traffic_burst_exercises_every_mechanism():
    payload = run_traffic_cell(to_dict(preset("traffic-burst")))
    assert payload["shed"]["queue_full"] > 0
    assert payload["shed"]["rate_limited"] > 0
    assert payload["violations"] > 0
    assert payload["jain"] < 1.0
    # bounded state despite the 2000-tenant population
    assert payload["peak_buckets"] < 2000


@pytest.mark.parametrize("name", ["traffic-smoke", "traffic-closedloop"])
def test_objstore_write_mix_serves_in_both_loops(name):
    """A quarter of the tenants PUT through the dedup store instead of
    reading; every PUT commits, and both the store and the scorecard
    conserve what they were offered."""
    scenario = to_dict(preset(name, ("objstore.write_fraction=0.25",)))
    payload = run_traffic_cell(scenario)
    store = payload["objstore"]
    assert store["puts"] > 0
    assert store["failed_puts"] == 0
    assert store["stored_bytes"] + store["deduped_bytes"] == store["offered_bytes"]
    assert payload["requests"] == payload["admitted"] + sum(payload["shed"].values())
    # CoDel drops exist only with the overload defenses armed
    assert payload["admitted"] == (
        payload["completed"] + payload["lost"] + (payload.get("dropped") or 0)
    )
    assert run_traffic_cell(scenario) == payload


def test_service_config_validation():
    with pytest.raises(ValueError, match="queue_depth"):
        ServiceConfig(queue_depth=0)
    with pytest.raises(ValueError, match="shares"):
        ServiceConfig(classes=(
            DEFAULT_PRIORITY_CLASSES[0],  # share 0.1
            type(DEFAULT_PRIORITY_CLASSES[0])(name="x", share=1.0),
        ))
    with pytest.raises(ValueError, match="pattern"):
        TrafficConfig(pattern="steady")
    with pytest.raises(ValueError, match="amplitude"):
        TrafficConfig(amplitude=1.5)
