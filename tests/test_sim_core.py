"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    assert sim.run(p) == 5.0
    assert sim.now == 5.0


def test_zero_delay_timeout_runs_same_timestamp():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value * 2

    assert sim.run(sim.process(parent())) == 84


def test_events_fire_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(tag))
    sim.run()
    assert order == list("abcde")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(3.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_time_raises():
    sim = Simulator()
    sim.process(iter_timeout(sim, 5.0))
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def iter_timeout(sim, t):
    yield sim.timeout(t)


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def firer():
        yield sim.timeout(2.0)
        ev.succeed("payload")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_escapes_run():
    sim = Simulator()
    ev = sim.event()

    def firer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("nobody caught me"))

    sim.process(firer())
    with pytest.raises(RuntimeError, match="nobody caught me"):
        sim.run()


def test_process_exception_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        with pytest.raises(ValueError, match="child died"):
            yield sim.process(child())
        return "handled"

    assert sim.run(sim.process(parent())) == "handled"


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late_waiter():
        yield sim.timeout(4.0)
        value = yield ev  # already processed by now
        return (sim.now, value)

    assert sim.run(sim.process(late_waiter())) == (4.0, "early")


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def worker(d):
        yield sim.timeout(d)
        return d

    def parent():
        procs = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
        results = yield sim.all_of(procs)
        return (sim.now, sorted(results.values()))

    assert sim.run(sim.process(parent())) == (3.0, [1.0, 2.0, 3.0])


def test_any_of_fires_on_first():
    sim = Simulator()

    def worker(d):
        yield sim.timeout(d)
        return d

    def parent():
        procs = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
        results = yield sim.any_of(procs)
        return (sim.now, list(results.values()))

    now, values = sim.run(sim.process(parent()))
    assert now == 1.0
    assert values == [1.0]
    sim.run()  # drain remaining workers


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        result = yield sim.all_of([])
        return result

    assert sim.run(sim.process(parent())) == {}


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(target):
        yield sim.timeout(2.0)
        target.interrupt("preempted")

    v = sim.process(victim())
    sim.process(attacker(v))
    sim.run()
    assert log == [(2.0, "preempted")]


def test_interrupted_process_can_rewait():
    sim = Simulator()

    def victim():
        deadline = sim.timeout(10.0)
        try:
            yield deadline
        except Interrupt:
            yield deadline  # resume waiting on the same timeout
        return sim.now

    def attacker(target):
        yield sim.timeout(3.0)
        target.interrupt()

    v = sim.process(victim())
    sim.process(attacker(v))
    assert sim.run(v) == 10.0


def test_interrupt_terminated_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()

    def selfish():
        me = sim.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield sim.timeout(1.0)

    sim.run(sim.process(selfish()))


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run(p)


def test_rng_streams_deterministic_and_independent():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    c = Simulator(seed=8)
    assert a.rng("flash").random() == b.rng("flash").random()
    assert a.rng("flash").random() != a.rng("pcie").random()
    assert b.rng("flash").random() != c.rng("flash").random()  # seed matters


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(2.5)
    assert sim.peek() == 2.5
    sim.step()
    assert sim.now == 2.5
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_run_until_event_never_firing_raises():
    sim = Simulator()
    orphan = sim.event()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    with pytest.raises(SimulationError, match="drained"):
        sim.run(orphan)


def test_daemon_timeout_does_not_keep_run_alive():
    sim = Simulator()
    fired = []

    def housekeeper():
        while True:
            yield sim.timeout(10.0, daemon=True)
            fired.append(sim.now)

    def worker():
        yield sim.timeout(3.0)

    sim.process(housekeeper())
    sim.process(worker())
    sim.run()  # must terminate even though the housekeeper loops forever
    assert sim.now == 3.0
    assert fired == []


def test_daemon_timeout_processed_within_bounded_run():
    sim = Simulator()
    fired = []

    def housekeeper():
        while True:
            yield sim.timeout(10.0, daemon=True)
            fired.append(sim.now)

    sim.process(housekeeper())
    sim.run(until=35.0)
    assert fired == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_daemon_work_counts_as_live_once_started():
    """Work spawned *by* a daemon tick is live and completes."""
    sim = Simulator()
    done = []

    def housekeeper():
        yield sim.timeout(5.0, daemon=True)
        yield sim.timeout(1.0)  # live follow-up work
        done.append(sim.now)

    sim.process(housekeeper())
    sim.run(until=5.0)  # wake the daemon exactly at its tick
    sim.run()  # live follow-up keeps running to completion
    assert done == [6.0]


def test_live_events_counter():
    sim = Simulator()
    assert sim.live_events == 0
    sim.timeout(1.0)
    sim.timeout(2.0, daemon=True)
    assert sim.live_events == 1
    sim.run()
    assert sim.live_events == 0


def test_run_until_event_with_only_daemons_raises():
    sim = Simulator()
    orphan = sim.event()

    def housekeeper():
        while True:
            yield sim.timeout(1.0, daemon=True)

    sim.process(housekeeper())
    with pytest.raises(SimulationError, match="drained"):
        sim.run(orphan)


def test_any_of_failure_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("first failure wins")

    def slow():
        yield sim.timeout(5.0)

    def parent():
        with pytest.raises(ValueError, match="first failure"):
            yield sim.any_of([sim.process(bad()), sim.process(slow())])
        return "survived"

    assert sim.run(sim.process(parent())) == "survived"
    sim.run()  # drain the slow worker


def test_all_of_failure_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("part failed")

    def good():
        yield sim.timeout(0.5)
        return "ok"

    def parent():
        with pytest.raises(RuntimeError, match="part failed"):
            yield sim.all_of([sim.process(good()), sim.process(bad())])
        return "survived"

    assert sim.run(sim.process(parent())) == "survived"


def test_all_of_with_pretriggered_events():
    sim = Simulator()
    done = sim.event()
    done.succeed("already")

    def parent():
        pending = sim.timeout(2.0, value="later")
        results = yield sim.all_of([done, pending])
        return sorted(str(v) for v in results.values())

    assert sim.run(sim.process(parent())) == ["already", "later"]


def test_any_of_late_failure_after_winner_is_defused():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "winner"

    def late_crash():
        yield sim.timeout(2.0)
        raise RuntimeError("too late to matter")

    def parent():
        crasher = sim.process(late_crash())
        result = yield sim.any_of([sim.process(quick()), crasher])
        assert "winner" in list(result.values())
        # the late crasher must not blow up the drain below
        try:
            yield crasher
        except RuntimeError:
            pass
        return "done"

    assert sim.run(sim.process(parent())) == "done"
