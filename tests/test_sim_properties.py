"""Property-based tests for the simulation kernel's ordering invariants.

The hot-path optimization work (pre-bound heap functions, inlined dispatch
loops, flattened constructors) must never change *what* the kernel computes,
only how fast.  These properties pin the contract the golden-schedule tests
observe end-to-end, at the kernel level where a violation is easiest to
localise:

* dispatch order is exactly ``(time, priority, sequence)`` — URGENT beats
  NORMAL at the same timestamp, and insertion order breaks every remaining
  tie (never object identity or heap internals);
* the lane-and-heap kernel fires the same events, at the same times, with
  the same ``events_processed`` and ``live_events``, as a heap-only
  reference scheduler, for programs whose callbacks schedule more events
  during dispatch and which are driven by ``run(until=t)``,
  ``run(until=event)``, ``step()`` and ``peek()`` as well as an unbounded
  ``run()``;
* ``AllOf`` fires at the latest constituent with every value collected;
  ``AnyOf`` fires at the earliest constituent;
* ``Resource`` grants are FIFO; ``PriorityResource`` grants are ordered by
  ``(priority, arrival)``; ``Store`` preserves FIFO under any producer/
  consumer interleaving;
* the plain ``Resource`` fast path (no heap key, release inlined in the
  ``with`` exit) grants exactly as a ``PriorityResource`` whose requests all
  share one priority, under holds, cancels and interrupts.

Hypothesis runs derandomized (see ``conftest.py``) so failures reproduce.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, PriorityResource, Resource, Simulator, Store
from repro.sim.core import NORMAL, URGENT

# Discrete microsecond-scale delays keep float arithmetic exact enough for
# equality assertions while still exercising the heap across many orders.
_TICK = 1e-6


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([URGENT, NORMAL])),
        min_size=1,
        max_size=30,
    )
)
def test_dispatch_order_is_time_priority_sequence(entries):
    """Events fire sorted by (time, priority), FIFO within a tie."""
    sim = Simulator()
    fired: list[int] = []
    for idx, (ticks, priority) in enumerate(entries):
        ev = sim.event(name=f"e{idx}")
        ev.callbacks.append(lambda _ev, i=idx: fired.append(i))
        sim._schedule(ev, ticks * _TICK, priority)
    sim.run()
    expected = [
        idx
        for idx, _ in sorted(
            enumerate(entries), key=lambda item: (item[1][0], item[1][1], item[0])
        )
    ]
    assert fired == expected


@given(st.lists(st.integers(0, 1000), min_size=0, max_size=15))
def test_all_of_gathers_every_value_at_latest_delay(ticks):
    sim = Simulator()
    delays = [t * _TICK for t in ticks]

    def job():
        timeouts = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
        result = yield sim.all_of(timeouts)
        assert sim.now == max(delays, default=0.0)
        assert [result[t] for t in timeouts] == list(range(len(timeouts)))
        return True

    assert sim.run(sim.process(job())) is True


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=15))
def test_any_of_fires_at_earliest_delay(ticks):
    sim = Simulator()
    delays = [t * _TICK for t in ticks]

    def job():
        timeouts = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
        result = yield sim.any_of(timeouts)
        winner = min(range(len(delays)), key=lambda i: (delays[i], i))
        assert sim.now == delays[winner]
        assert timeouts[winner] in result
        assert result[timeouts[winner]] == winner
        return True

    assert sim.run(sim.process(job())) is True


@given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
def test_resource_grants_are_fifo(hold_ticks):
    """Capacity-1 resource: service order equals request order."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants: list[int] = []

    def worker(i: int, hold: float):
        with res.request() as req:
            yield req
            grants.append(i)
            yield sim.timeout(hold)

    for i, ticks in enumerate(hold_ticks):
        sim.process(worker(i, ticks * _TICK))
    sim.run()
    assert grants == list(range(len(hold_ticks)))


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 100)),
        min_size=2,
        max_size=20,
    )
)
def test_priority_resource_orders_by_priority_then_arrival(requests):
    """All requests arrive together: the first is granted immediately, the
    rest are served by (priority, arrival order)."""
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    grants: list[int] = []

    def worker(i: int, priority: int, hold: float):
        with res.request(priority=priority) as req:
            yield req
            grants.append(i)
            yield sim.timeout(hold)

    for i, (priority, ticks) in enumerate(requests):
        sim.process(worker(i, priority, ticks * _TICK))
    sim.run()
    queued = sorted(range(1, len(requests)), key=lambda i: (requests[i][0], i))
    assert grants == [0] + queued


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
)
def test_store_preserves_fifo_under_interleaving(put_gaps, get_gaps):
    sim = Simulator()
    store = Store(sim)
    n = len(put_gaps)
    got: list[int] = []

    def producer():
        for i, gap in enumerate(put_gaps):
            yield sim.timeout(gap * _TICK)
            yield store.put(i)

    def consumer():
        gaps = (get_gaps * (n // len(get_gaps) + 1))[:n]
        for gap in gaps:
            yield sim.timeout(gap * _TICK)
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == list(range(n))


# -- lane-and-heap kernel against a heap-only reference -----------------------

class _HeapKernel:
    """Reference scheduler: every event in one ``(time, priority, seq)`` heap."""

    def __init__(self):
        self.now, self.heap, self.seq = 0.0, [], itertools.count()
        self.live = self.processed = 0

    def schedule(self, action, delay, priority, daemon):
        heapq.heappush(self.heap, (self.now + delay, priority, next(self.seq), daemon, action))
        self.live += not daemon

    def peek(self):
        return self.heap[0][0] if self.heap else float("inf")

    def step(self):
        self.now, _prio, _seq, daemon, action = heapq.heappop(self.heap)
        self.live -= not daemon
        self.processed += 1
        action()

    def run(self, until=None):
        while self.heap and (self.live > 0 if until is None else self.heap[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until

    def run_to_marker(self, delay):
        """``Simulator.run(until=sim.timeout(delay))``."""
        fired = []
        self.schedule(lambda: fired.append(True), delay, NORMAL, False)
        while not fired:
            self.step()


#: Delays: zero; 1e-12, which is a real step at small ``now`` but rounds to
#: ``now`` once the clock passes ~1e4 s; a few ticks; and a jump to ~1e6 s.
_DELAYS = (0.0, 1e-12, _TICK, 3 * _TICK, 1e6)

_node = st.tuples(
    st.sampled_from(_DELAYS),
    st.sampled_from([URGENT, NORMAL]),
    st.booleans(),  # daemon
    st.sampled_from(["schedule", "timeout", "succeed"]),  # kernel entry point
)
_program = st.recursive(
    st.tuples(_node, st.just(())),
    lambda kids: st.tuples(_node, st.lists(kids, max_size=3).map(tuple)),
    max_leaves=25,
)
_driver = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.sampled_from([0.0, _TICK, 2 * _TICK, 2e6])),
        st.tuples(st.just("stop"), st.sampled_from([0.0, _TICK, 2e6])),
        st.just(("step", 0.0)),
        st.just(("peek", 0.0)),
    ),
    max_size=8,
)


def _schedule_on_sim(sim, node, fire):
    """Schedule one program node through the kernel's public or internal paths."""
    (delay, priority, daemon, via), _children = node
    if via == "timeout" and priority == NORMAL:
        ev = sim.timeout(delay, daemon=daemon)
    elif via == "succeed" and priority == NORMAL and delay == 0.0 and not daemon:
        ev = sim.event()
        ev.succeed()
    else:
        ev = sim.event()
        sim._schedule(ev, delay, priority, daemon)
    ev.callbacks.append(lambda _ev: fire())


def _execute(roots, driver, kernel_is_sim: bool):
    """Run a program on one kernel; return everything observable."""
    k = Simulator() if kernel_is_sim else _HeapKernel()
    log: list[tuple] = []
    ids = itertools.count()

    def observe():
        if kernel_is_sim:
            return (k.now, k.events_processed, k.live_events)
        return (k.now, k.processed, k.live)

    def schedule(node):
        nid = next(ids)

        def fire():
            log.append((nid, *observe()))
            for child in node[1]:
                schedule(child)

        if kernel_is_sim:
            _schedule_on_sim(k, node, fire)
        else:
            (delay, priority, daemon, _via), _children = node
            k.schedule(fire, delay, priority, daemon)

    for root in roots:
        schedule(root)
    for op, arg in driver:
        if op == "until":
            k.run(until=k.now + arg)
        elif op == "stop":
            if kernel_is_sim:
                k.run(until=k.timeout(arg))
            else:
                k.run_to_marker(arg)
        elif op == "step" and k.peek() < float("inf"):
            k.step()
        log.append((op, k.peek(), *observe()))
    k.run()
    log.append(("end", k.peek(), *observe()))
    return log


@settings(max_examples=300)
@given(st.lists(_program, min_size=1, max_size=6), _driver)
def test_kernel_matches_heap_only_reference(roots, driver):
    """Same firing order, ``now`` per firing, ``events_processed`` and
    ``live_events`` as one heap ordered by ``(time, priority, seq)``.

    Node ids are assigned in scheduling order, so they match only while both
    kernels fire the same events in the same order.
    """
    assert _execute(roots, driver, True) == _execute(roots, driver, False)


# -- the FIFO fast path against the general (heap) path -----------------------

#: One client: arrival tick, hold ticks, and what happens to it —
#: ``hold`` (request, hold, release), ``cancel`` (renege after ``patience``
#: ticks if still queued, leaving its ``with`` block) or ``interrupt``
#: (interrupted ``patience`` ticks after arrival, queued or holding).
_client = st.tuples(
    st.integers(0, 6),
    st.integers(1, 5),
    st.sampled_from(["hold", "cancel", "interrupt"]),
    st.integers(0, 6),
)


def _serve_clients(kind, capacity, clients):
    sim = Simulator()
    res = kind(sim, capacity=capacity)
    grants: list[tuple[int, float]] = []
    outcomes: list[tuple[int, str, float]] = []

    def client(i, arrive, hold, action, patience):
        yield sim.timeout(arrive * _TICK)
        try:
            with res.request(priority=0) as req:
                if action == "cancel":
                    yield sim.any_of([req, sim.timeout(patience * _TICK)])
                    if not req.triggered:  # leaving the block withdraws it
                        outcomes.append((i, "reneged", sim.now))
                        return
                else:
                    yield req
                grants.append((i, sim.now))
                yield sim.timeout(hold * _TICK)
            outcomes.append((i, "done", sim.now))
        except Interrupt:
            outcomes.append((i, "interrupted", sim.now))

    def interrupter(proc, at):
        yield sim.timeout(at * _TICK)
        if not proc.triggered:
            proc.interrupt("stop")

    for i, (arrive, hold, action, patience) in enumerate(clients):
        proc = sim.process(client(i, arrive, hold, action, patience))
        if action == "interrupt":
            sim.process(interrupter(proc, arrive + patience))
    sim.run()
    return grants, outcomes, res.utilization(), sim.events_processed, sim.now


@settings(max_examples=300)
@given(st.integers(1, 3), st.lists(_client, min_size=1, max_size=14))
def test_fifo_resource_matches_equal_priority_resource(capacity, clients):
    """Same grant sequence, grant times, outcomes, utilisation and event
    count on a plain Resource as on a PriorityResource at one priority."""
    fifo = _serve_clients(Resource, capacity, clients)
    general = _serve_clients(PriorityResource, capacity, clients)
    assert fifo == general
    grants = fifo[0]
    assert len(grants) == len({i for i, _ in grants})
