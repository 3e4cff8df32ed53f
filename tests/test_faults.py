"""Fault-injection subsystem: plans, fault states, retry/breaker policy,
and the injector's end-to-end behavior against a live node.

The contract under test mirrors the obs subsystem's: everything is
deterministic from the seed, failures are classified (transport faults
retry, real minion outcomes don't), and a device nobody injects faults
into runs a bit-identical schedule.
"""

import pytest

from repro.config import FaultsConfig, FlashConfig, FleetConfig, ScenarioConfig
from repro.config import build_node as build_node_from
from repro.faults import (
    AgentFaultState,
    BreakerConfig,
    CircuitBreaker,
    DeviceFaultState,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    completion_retryable,
    response_retryable,
)
from repro.host import BreakerOpen, InSituError
from repro.nvme import Status
from repro.obs import MetricsRegistry
from repro.proto import Command, ResponseStatus
from repro.sim import Simulator, Tracer
from repro.workloads import BookCorpus, CorpusSpec
from tests.test_obs_metrics import total


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, FaultKind.DEVICE_CRASH, 0, "compstor0")
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.DEVICE_CRASH, 0, "compstor0", duration=0.0)
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.TRANSIENT, 0, "compstor0", fraction=1.5)
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.LIMP, 0, "compstor0", factor=0.5)


def test_plan_orders_by_time_then_insertion():
    plan = (
        FaultPlan()
        .kill_device(0, "compstor0", at=2e-3)
        .crash_agent(1, "compstor1", at=1e-3)
        .limp(0, "compstor1", at=1e-3, factor=2.0)
    )
    kinds = [e.kind for e in plan.events()]
    assert kinds == [FaultKind.AGENT_CRASH, FaultKind.LIMP, FaultKind.DEVICE_CRASH]
    assert len(plan) == 3


def test_plan_fingerprint_is_stable_and_discriminating():
    def build():
        return FaultPlan(seed=9).kill_device(0, "compstor0", at=1e-3)

    assert build().fingerprint() == build().fingerprint()
    other = FaultPlan(seed=9).kill_device(0, "compstor0", at=2e-3)
    assert build().fingerprint() != other.fingerprint()


def test_random_plan_is_a_pure_function_of_its_arguments():
    devices = [(0, "compstor0"), (0, "compstor1"), (1, "compstor0")]
    a = FaultPlan.random(7, devices, horizon=10e-3)
    b = FaultPlan.random(7, devices, horizon=10e-3)
    assert a.fingerprint() == b.fingerprint()
    assert [e.describe() for e in a.events()] == [e.describe() for e in b.events()]
    assert FaultPlan.random(8, devices, horizon=10e-3).fingerprint() != a.fingerprint()
    with pytest.raises(ValueError):
        FaultPlan.random(0, [], horizon=10e-3)


def test_random_faults_from_config_start_at_base_time():
    """``faults.random`` draws over ``[0, horizon_ms)`` after ``base_time``,
    like explicit events, not over the absolute window up to it."""
    devices = [(0, "compstor0"), (0, "compstor1"), (1, "compstor0")]
    base, horizon_ms = 5e-3, 2.0
    config = FaultsConfig(seed=7, random=12, horizon_ms=horizon_ms)
    plan = FaultPlan.from_config(config, devices, base_time=base)
    times = [event.time for event in plan.events()]
    assert len(times) == 12
    assert all(base <= t < base + horizon_ms * 1e-3 for t in times), times


# ---------------------------------------------------------------------------
# Fault states + classification
# ---------------------------------------------------------------------------

def test_device_fault_state_intercept():
    state = DeviceFaultState(rng=Simulator(seed=0).rng("test"))
    assert state.intercept() is None
    state.crashed = True
    assert state.intercept() == "DEVICE_UNAVAILABLE"
    assert state.commands_refused == 1
    state.crashed = False
    state.transient_fraction = 1.0
    assert state.intercept() == "TRANSIENT"
    assert state.transients_injected == 1


def test_retryability_classification():
    assert completion_retryable(Status.TRANSIENT)
    assert completion_retryable(Status.DEVICE_UNAVAILABLE)
    assert completion_retryable(Status.ISC_AGENT_DOWN)
    assert not completion_retryable(Status.ISC_FAILURE)
    assert not completion_retryable(Status.MEDIA_ERROR)
    # real minion outcomes are final; only infrastructure aborts retry
    assert response_retryable(ResponseStatus.ABORTED)
    assert not response_retryable(ResponseStatus.CRASHED)
    assert not response_retryable(ResponseStatus.TIMEOUT)
    assert not response_retryable(ResponseStatus.OK)


def test_retry_policy_backoff():
    policy = RetryPolicy(base_delay=1e-4, multiplier=2.0, max_delay=3e-4, jitter=0.0)
    assert policy.backoff(1) == pytest.approx(1e-4)
    assert policy.backoff(2) == pytest.approx(2e-4)
    assert policy.backoff(3) == pytest.approx(3e-4)  # capped
    assert policy.backoff(9) == pytest.approx(3e-4)
    with pytest.raises(ValueError):
        policy.backoff(0)


def test_retry_policy_jitter_is_bounded_and_seed_deterministic():
    policy = RetryPolicy(base_delay=1e-3, jitter=0.25, max_delay=1e-3)
    draws_a = [policy.backoff(1, Simulator(seed=4).rng("client.retry")) for _ in range(3)]
    draws_b = [policy.backoff(1, Simulator(seed=4).rng("client.retry")) for _ in range(3)]
    assert draws_a == draws_b  # fresh stream, same seed => same jitter
    for delay in draws_a:
        assert 0.75e-3 <= delay <= 1e-3  # never above the configured cap


def test_retry_policy_jitter_never_exceeds_cap():
    """Regression: upward jitter used to escape ``max_delay``.

    With ``base_delay == max_delay`` every raw backoff sits exactly at the
    cap, so any positive jitter draw used to push the returned delay past
    it.  The post-jitter clamp must hold for every draw without changing
    how many RNG values are consumed.
    """
    policy = RetryPolicy(base_delay=5e-4, multiplier=2.0, max_delay=1e-3, jitter=0.25)
    rng = Simulator(seed=11).rng("client.retry")
    delays = [policy.backoff(attempt, rng) for attempt in range(1, 41)]
    assert all(0.0 <= d <= policy.max_delay for d in delays)
    # some draws must actually hit the clamp, or the regression isn't exercised
    assert any(d == policy.max_delay for d in delays)
    # exactly one RNG draw per backoff call: a fresh stream that skips the
    # same number of draws continues identically
    control = Simulator(seed=11).rng("client.retry")
    for _ in range(40):
        control.random()
    assert rng.random() == control.random()


def test_retry_policy_validation():
    for bad in (
        dict(max_attempts=0),
        dict(base_delay=0.0),
        dict(multiplier=0.5),
        dict(jitter=1.0),
        dict(deadline=0.0),
    ):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)


def test_circuit_breaker_lifecycle():
    seen = []
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=2, cooldown=1.0),
        on_transition=lambda prev, state: seen.append((prev, state)),
    )
    assert breaker.allow(0.0)
    breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure(0.1)
    assert breaker.state == CircuitBreaker.OPEN
    # open: fail fast until the cooldown elapses
    assert not breaker.allow(0.5)
    assert breaker.fast_fails == 1
    # cooldown over: exactly one probe gets through
    assert breaker.allow(1.2)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert not breaker.allow(1.2)
    # probe failure re-opens; probe success closes
    breaker.record_failure(1.3)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.allow(2.4)
    breaker.record_success(2.5)
    assert breaker.state == CircuitBreaker.CLOSED
    assert [state for _, state in seen] == [
        t[1] for t in breaker.transitions
    ] == ["open", "half-open", "open", "half-open", "closed"]


def test_breaker_config_validation():
    with pytest.raises(ValueError):
        BreakerConfig(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerConfig(cooldown=0.0)


# ---------------------------------------------------------------------------
# Injector against a live node
# ---------------------------------------------------------------------------

def build_node(devices=1, seed=7, retry=None, breaker=None, tracer=None):
    """A staged single-node rig: one plain-text book per device."""
    config = ScenarioConfig(
        seed=seed,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=devices),
        retry=retry,
        breaker=breaker,
    )
    node = build_node_from(config, tracer=tracer)
    books = BookCorpus(
        CorpusSpec(files=devices, mean_file_bytes=16 * 1024, seed=3)
    ).generate()
    node.sim.run(node.sim.process(node.stage_corpus(books, compressed=False)))
    return node, books


def grep(book):
    return Command(command_line=f"grep xylophone {book.name}")


def send_collecting(node, device, command):
    """Run one send_minion to completion; the error is returned, not raised."""

    def go():
        try:
            minion = yield from node.client.send_minion(device, command)
        except InSituError as exc:
            return exc
        return minion

    return node.sim.run(node.sim.process(go()))


def minion_roundtrip():
    """(dispatch time, duration) of one fault-free grep minion."""
    node, books = build_node()
    t0 = node.sim.now
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert outcome.response.ok
    return t0, node.sim.now - t0


def test_crashed_device_refuses_commands():
    node, books = build_node()
    plan = FaultPlan().kill_device(0, "compstor0", at=node.sim.now)
    FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(outcome, InSituError)
    assert "DEVICE_UNAVAILABLE" in str(outcome)
    assert node.compstors[0].controller.faults.commands_refused >= 1


def test_downed_agent_answers_isc_agent_down():
    node, books = build_node()
    plan = FaultPlan().crash_agent(0, "compstor0", at=node.sim.now, restart_after=None)
    FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(outcome, InSituError)
    assert "ISC_AGENT_DOWN" in str(outcome)


def test_agent_crash_mid_minion_aborts_not_timeout():
    """An infrastructure kill is ABORTED (retryable); it must not be
    confused with the watchdog's TIMEOUT (a final outcome)."""
    t0, roundtrip = minion_roundtrip()
    node, books = build_node()
    plan = FaultPlan().crash_agent(
        0, "compstor0", at=t0 + roundtrip / 2, restart_after=None
    )
    injector = FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(outcome, InSituError)
    assert "aborted" in str(outcome)
    agent = node.compstors[0].agent
    assert agent.minions_aborted == 1
    assert agent.watchdog_kills == 0
    assert injector.minions_killed == 1


def test_agent_restart_recovers_minion_with_retries():
    t0, roundtrip = minion_roundtrip()
    node, books = build_node(retry=RetryPolicy(max_attempts=10))
    plan = FaultPlan().crash_agent(
        0, "compstor0", at=t0 + roundtrip / 2, restart_after=1e-3
    )
    FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert not isinstance(outcome, InSituError)
    assert outcome.response.ok
    assert node.client.retries > 0
    agent = node.compstors[0].agent
    assert agent.faults.restarts == 1
    assert agent.telemetry().agent_restarts == 1


def test_transient_window_is_ridden_out_by_retries():
    node, books = build_node(retry=RetryPolicy(max_attempts=10))
    plan = FaultPlan().transient_window(
        0, "compstor0", at=node.sim.now, duration=1e-3, fraction=1.0
    )
    FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert outcome.response.ok
    assert node.client.retries > 0
    faults = node.compstors[0].controller.faults
    assert faults.transients_injected > 0
    assert faults.transient_fraction == 0.0  # window closed on recovery


def test_limping_device_finishes_later():
    _, healthy = minion_roundtrip()
    node, books = build_node()
    plan = FaultPlan().limp(0, "compstor0", at=node.sim.now, factor=16.0)
    FaultInjector.for_node(node, plan).start()
    t0 = node.sim.now
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert outcome.response.ok  # limping devices still answer correctly
    assert node.sim.now - t0 > healthy


def test_breaker_fences_off_a_dead_device():
    node, books = build_node(breaker=BreakerConfig(failure_threshold=2))
    plan = FaultPlan().kill_device(0, "compstor0", at=node.sim.now)
    FaultInjector.for_node(node, plan).start()
    first = send_collecting(node, "compstor0", grep(books[0]))
    second = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(first, InSituError) and isinstance(second, InSituError)
    assert node.client.breaker_state("compstor0") == CircuitBreaker.OPEN
    third = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(third, BreakerOpen)  # no wire traffic, failed locally
    assert node.client.breaker_states() == {"compstor0": "open"}


def test_gather_return_exceptions_keeps_slot_alignment():
    node, books = build_node(devices=2)
    plan = FaultPlan().kill_device(0, "compstor1", at=node.sim.now)
    FaultInjector.for_node(node, plan).start()
    shares = node.device_books(books)
    assignments = [
        (device, grep(book)) for device in ("compstor0", "compstor1")
        for book in shares[device]
    ]

    def job():
        return (yield from node.client.gather(assignments, return_exceptions=True))

    outcomes = node.sim.run(node.sim.process(job()))
    assert len(outcomes) == len(assignments)
    assert outcomes[0].ok  # compstor0 survived
    assert isinstance(outcomes[1], InSituError)  # compstor1 slot holds its error


def test_spans_never_leak_on_failed_delivery():
    """Satellite fix: the minion's root span must end even when delivery
    dies — try/finally in send_minion, idempotent Span.end."""
    tracer = Tracer()
    node, books = build_node(tracer=tracer)
    plan = FaultPlan().kill_device(0, "compstor0", at=node.sim.now)
    FaultInjector.for_node(node, plan).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert isinstance(outcome, InSituError)
    started = sorted(
        r.detail["span"] for r in tracer.records if r.kind == "span.start"
    )
    ended = sorted(r.detail["span"] for r in tracer.records if r.kind == "span.end")
    assert started and started == ended
    # the failure path annotated the end with its status
    (end_record,) = [r for r in tracer.records if r.kind == "span.end"]
    assert end_record.detail.get("status") == "DEVICE_UNAVAILABLE"


def test_injector_validates_targets_and_single_start():
    node, _ = build_node()
    bad = FaultPlan().kill_device(3, "compstor9", at=1e-3)
    with pytest.raises(KeyError):
        FaultInjector.for_node(node, bad).start()
    injector = FaultInjector.for_node(node, FaultPlan())
    injector.start()
    with pytest.raises(RuntimeError):
        injector.start()


def test_injector_counts_and_metrics():
    metrics = MetricsRegistry()
    node, books = build_node(retry=RetryPolicy(max_attempts=10))
    plan = FaultPlan().kill_device(0, "compstor0", at=node.sim.now, recover_after=1e-3)
    injector = FaultInjector.for_node(node, plan, metrics=metrics).start()
    outcome = send_collecting(node, "compstor0", grep(books[0]))
    assert outcome.response.ok  # device recovered, retries got through
    state = node.compstors[0].controller.faults
    assert state.crashes == 1
    assert state.recoveries == 1
    assert state.commands_refused >= 1
    assert [desc for _, desc in injector.applied] == [
        plan.events()[0].describe(),
        f"recovered: {plan.events()[0].describe()}",
    ]
    assert total(metrics["faults.injected"]) == 1
    assert total(metrics["faults.recovered"]) == 1
