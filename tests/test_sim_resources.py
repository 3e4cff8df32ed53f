"""Unit tests for resources, stores and containers."""

import pytest

from repro.sim import PriorityResource, Resource, Simulator, Store


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            start = sim.now
            yield sim.timeout(hold)
            spans.append((tag, start, sim.now))

    sim.process(user("a", 2.0))
    sim.process(user("b", 3.0))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def user(tag):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)
            done.append((tag, sim.now))

    for tag in "abc":
        sim.process(user(tag))
    sim.run()
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, arrive):
        yield sim.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(10.0)

    for i, tag in enumerate("abcd"):
        sim.process(user(tag, float(i)))
    sim.run()
    assert order == list("abcd")


def test_resource_release_without_grant_is_safe():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)

    def impatient():
        yield sim.timeout(1.0)
        with res.request():
            pass  # withdraw before grant
        yield sim.timeout(0.0)

    sim.process(holder())
    sim.process(impatient())
    sim.run()
    assert len(res.users) == 0
    assert len(res.queue) == 0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_tracking():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield sim.timeout(4.0)

    sim.process(user())
    sim.run(until=8.0)
    assert res.utilization() == pytest.approx(0.5)


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def user(tag, prio):
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield sim.timeout(1.0)

    def setup():
        # occupy the resource, then submit contenders in reverse priority
        with res.request(priority=0) as req:
            yield req
            sim.process(user("low", 9))
            sim.process(user("high", 1))
            sim.process(user("mid", 5))
            yield sim.timeout(1.0)

    sim.process(setup())
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_fifo_within_level():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def user(tag):
        with res.request(priority=3) as req:
            yield req
            order.append(tag)
            yield sim.timeout(1.0)

    def setup():
        with res.request(priority=0) as req:
            yield req
            for tag in "xyz":
                sim.process(user(tag))
            yield sim.timeout(1.0)

    sim.process(setup())
    sim.run()
    assert order == list("xyz")


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [(0.0, 0), (1.0, 1), (2.0, 2)]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(5.0, "late")]


def test_store_bounded_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a-in", sim.now))
        yield store.put("b")
        times.append(("b-in", sim.now))

    def consumer():
        yield sim.timeout(3.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times == [("a-in", 0.0), ("b-in", 3.0)]


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in ("apple", "banana", "avocado"):
            yield store.put(item)

    def consumer():
        item = yield store.get(filter=lambda s: s.startswith("b"))
        got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["banana"]
    assert list(store.items) == ["apple", "avocado"]


def test_store_filtered_get_waits_for_match():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get(filter=lambda x: x == "target")
        got.append((sim.now, item))

    def producer():
        yield store.put("noise")
        yield sim.timeout(2.0)
        yield store.put("target")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(2.0, "target")]
    assert list(store.items) == ["noise"]


def test_interrupt_while_queued_releases_request():
    """A process interrupted while waiting for a resource (inside the
    `with request()` context) must not leak its queue slot."""
    from repro.sim import Interrupt

    sim = Simulator()
    res = Resource(sim, capacity=1)
    outcome = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(10.0)

    def victim():
        try:
            with res.request() as req:
                yield req  # still queued when the interrupt lands
                outcome.append("granted")
        except Interrupt:
            outcome.append("interrupted")

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    sim.process(holder())
    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    assert outcome == ["interrupted"]
    assert len(res.queue) == 0  # no orphaned request
    assert len(res.users) == 0  # holder released; nothing leaked


def test_interrupt_while_holding_releases_slot():
    from repro.sim import Interrupt

    sim = Simulator()
    res = Resource(sim, capacity=1)

    def victim():
        try:
            with res.request() as req:
                yield req
                yield sim.timeout(100.0)
        except Interrupt:
            pass

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    assert len(res.users) == 0  # slot returned on unwind


def test_priority_resource_interrupted_waiter_skipped():
    from repro.sim import Interrupt

    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield sim.timeout(5.0)

    def waiter(tag, prio):
        try:
            with res.request(priority=prio) as req:
                yield req
                order.append(tag)
                yield sim.timeout(1.0)
        except Interrupt:
            order.append(f"{tag}-killed")

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    sim.process(holder())
    first = sim.process(waiter("first", 1))
    sim.process(waiter("second", 2))
    sim.process(attacker(first))
    sim.run()
    assert order == ["first-killed", "second"]
