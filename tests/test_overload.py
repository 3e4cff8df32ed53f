"""Overload-control primitives and host-side resilience fixes.

Covers the four admission-side state machines (retry budget, brownout,
CoDel, AIMD), the multi-window burn-rate evaluator, and three host-side
hardening properties:

* a Hypothesis state machine drives the circuit breaker through arbitrary
  allow/succeed/fail/advance interleavings and checks every edge it takes
  is a legal transition, ``fast_fails`` never decreases, and the half-open
  state never has two live probes in flight;
* the retry budget conserves every request it sees
  (``requested == admitted + rejected``) and never lets admitted retries
  outrun ``burst + ratio * fresh``;
* a token bucket fed a *non-monotonic* clock never conjures tokens, and
  ``send_minion`` fails fast with ``TIMEOUT`` instead of sleeping its
  backoff past the retry deadline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.faults import FaultInjector, FaultPlan
from repro.faults.retry import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.host import InSituError
from repro.obs.health import burn_rate_alerts
from repro.proto import Command
from repro.service import (
    AimdController,
    Brownout,
    CoDelController,
    RetryBudget,
    TokenBucket,
)
from repro.workloads import BookCorpus, CorpusSpec


# ---------------------------------------------------------------------------
# RetryBudget
# ---------------------------------------------------------------------------

def test_retry_budget_starts_full_and_caps_at_burst():
    budget = RetryBudget(ratio=0.1, burst=3.0)
    assert budget.try_spend() and budget.try_spend() and budget.try_spend()
    assert not budget.try_spend()  # burst exhausted
    for _ in range(100):
        budget.earn()
    assert budget.tokens == pytest.approx(3.0)  # earn never exceeds burst


def test_retry_budget_validation():
    with pytest.raises(ValueError):
        RetryBudget(ratio=-0.1, burst=2.0)
    with pytest.raises(ValueError):
        RetryBudget(ratio=0.1, burst=0.5)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(st.booleans(), min_size=1, max_size=200),  # True = earn
    ratio=st.floats(min_value=0.0, max_value=2.0),
    burst=st.floats(min_value=1.0, max_value=16.0),
)
def test_retry_budget_conservation_and_cap(ops, ratio, burst):
    budget = RetryBudget(ratio=ratio, burst=burst)
    fresh = 0
    for earn in ops:
        if earn:
            budget.earn()
            fresh += 1
        else:
            budget.try_spend()
    # conservation: every retry the budget saw was either admitted or rejected
    assert budget.requested == budget.admitted + budget.rejected
    # the cap: admitted retries never outrun the initial burst plus earnings
    assert budget.admitted <= burst + ratio * fresh + 1e-6
    assert -1e-9 <= budget.tokens <= burst + 1e-9


# ---------------------------------------------------------------------------
# Brownout
# ---------------------------------------------------------------------------

def test_brownout_sheds_lowest_class_first():
    brownout = Brownout(("bronze", "silver", "gold"), start=0.5)
    # bronze browns out at 50% depth, silver at 75%, gold never
    assert not brownout.sheds("bronze", 15, 32)
    assert brownout.sheds("bronze", 16, 32)
    assert not brownout.sheds("silver", 16, 32)
    assert brownout.sheds("silver", 24, 32)
    assert not brownout.sheds("gold", 31, 32)


def test_brownout_start_at_one_disables_shedding():
    brownout = Brownout(("bronze", "silver", "gold"), start=1.0)
    for name in ("bronze", "silver", "gold"):
        assert not brownout.sheds(name, 31, 32)


def test_brownout_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        Brownout(("a", "b"), start=0.0)


# ---------------------------------------------------------------------------
# CoDel
# ---------------------------------------------------------------------------

def test_codel_never_drops_below_target():
    codel = CoDelController(target=2e-3, interval=20e-3)
    for step in range(100):
        assert not codel.on_dequeue(step * 1e-3, sojourn=1e-3)
    assert codel.drops == 0


def test_codel_drops_after_sustained_standing_queue():
    codel = CoDelController(target=2e-3, interval=10e-3)
    decisions = [codel.on_dequeue(now * 1e-3, sojourn=5e-3) for now in range(40)]
    # grace period: nothing dropped until sojourn stayed high a full interval
    assert not any(decisions[:10])
    assert any(decisions[10:])
    # square-root law: drop spacing tightens while the queue persists
    drop_times = [t for t, dropped in enumerate(decisions) if dropped]
    gaps = [b - a for a, b in zip(drop_times, drop_times[1:])]
    assert gaps == sorted(gaps, reverse=True)
    assert codel.drops == len(drop_times)


def test_codel_burst_below_target_resets_controller():
    codel = CoDelController(target=2e-3, interval=10e-3)
    for now in range(25):
        codel.on_dequeue(now * 1e-3, sojourn=5e-3)
    assert codel.dropping
    assert not codel.on_dequeue(26e-3, sojourn=1e-3)  # queue drained
    assert not codel.dropping and codel.first_above is None
    # the grace period starts over from scratch
    assert not codel.on_dequeue(27e-3, sojourn=5e-3)


# ---------------------------------------------------------------------------
# AIMD
# ---------------------------------------------------------------------------

def test_aimd_additive_increase_multiplicative_decrease():
    aimd = AimdController(low=1e-3, high=5e-3, decrease=0.5,
                          floor=2, ceiling=16, initial=4)
    assert aimd.update(10e-3) == 5  # wait above high: +1
    assert aimd.update(10e-3) == 6
    assert aimd.update(3e-3) == 6  # in the dead band: hold
    assert aimd.update(0.0) == 3  # below low: halve (ceil)
    assert aimd.update(0.0) == 2
    assert aimd.update(0.0) == 2  # clamped at the floor
    assert aimd.peak == 6 and aimd.increases == 2 and aimd.decreases == 2


def test_aimd_never_exceeds_ceiling():
    aimd = AimdController(low=1e-3, high=5e-3, decrease=0.5,
                          floor=1, ceiling=6, initial=4)
    for _ in range(20):
        assert aimd.update(1.0) <= 6
    assert aimd.allowed == 6 and aimd.peak == 6


# ---------------------------------------------------------------------------
# Burn-rate alerting
# ---------------------------------------------------------------------------

def _window(long_ms, short_ms, threshold):
    from repro.config.schema import BurnWindowConfig

    return BurnWindowConfig(long_ms=long_ms, short_ms=short_ms,
                            threshold=threshold)


def test_burn_rate_fires_on_sustained_badness():
    # objective 0.9 -> budget 0.1; all-bad traffic burns at 10x
    events = [(t * 1e-3, False) for t in range(20)]
    (verdict,) = burn_rate_alerts(events, 0.9, [_window(10.0, 2.0, 5.0)])
    assert verdict["fired"]
    assert verdict["fired_at_ms"] == pytest.approx(0.0)
    assert verdict["worst"] == pytest.approx(10.0)


def test_burn_rate_ignores_a_short_blip():
    # two bad events in a sea of good: the short window spikes but the
    # long window stays dilute, so the pair must not fire
    events = [(t * 1e-3, t not in (10, 11)) for t in range(100)]
    (verdict,) = burn_rate_alerts(events, 0.9, [_window(50.0, 2.0, 8.0)])
    assert not verdict["fired"]
    assert verdict["fired_at_ms"] is None


def test_burn_rate_rejects_bad_objective():
    with pytest.raises(ValueError):
        burn_rate_alerts([], 1.0, [_window(10.0, 2.0, 1.0)])


# ---------------------------------------------------------------------------
# Circuit breaker: stateful property + probe-deadline regression
# ---------------------------------------------------------------------------

LEGAL_EDGES = {
    (CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
    (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
    (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
    (CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN),
    # a straggler success from a request admitted before the trip is
    # direct evidence of health: the breaker closes without probing
    (CircuitBreaker.OPEN, CircuitBreaker.CLOSED),
}


class BreakerMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of traffic against one breaker."""

    PROBE_TIMEOUT = 0.5

    def __init__(self):
        super().__init__()
        self.breaker = CircuitBreaker(BreakerConfig(
            failure_threshold=3, cooldown=1.0,
            probe_timeout=self.PROBE_TIMEOUT,
        ))
        self.now = 0.0
        self.last_fast_fails = 0
        self.probe_live_until: float | None = None

    @rule(dt=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def advance(self, dt):
        self.now += dt

    @rule()
    def try_send(self):
        was_closed = self.breaker.state == CircuitBreaker.CLOSED
        admitted = self.breaker.allow(self.now)
        if was_closed:
            assert admitted  # closed always admits
            return
        if admitted:
            # half-open admits exactly one probe per deadline window
            assert (
                self.probe_live_until is None
                or self.now >= self.probe_live_until
            ), "second probe admitted while one was still in flight"
            self.probe_live_until = self.now + self.PROBE_TIMEOUT
        else:
            assert self.breaker.state != CircuitBreaker.CLOSED

    @rule()
    def succeed(self):
        self.breaker.record_success(self.now)
        self.probe_live_until = None

    @rule()
    def fail(self):
        self.breaker.record_failure(self.now)
        self.probe_live_until = None

    @invariant()
    def state_is_legal_and_fast_fails_monotonic(self):
        assert self.breaker.state in (
            CircuitBreaker.CLOSED, CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN
        )
        assert self.breaker.fast_fails >= self.last_fast_fails
        self.last_fast_fails = self.breaker.fast_fails
        path = [CircuitBreaker.CLOSED] + [s for _, s in self.breaker.transitions]
        for edge in zip(path, path[1:]):
            assert edge in LEGAL_EDGES, f"illegal transition {edge}"


TestBreakerStateMachine = BreakerMachine.TestCase


def test_breaker_probe_deadline_unwedges_half_open():
    """A probe whose outcome is never recorded must not wedge the breaker."""
    breaker = CircuitBreaker(BreakerConfig(
        failure_threshold=1, cooldown=10e-3, probe_timeout=5e-3,
    ))
    breaker.record_failure(0.0)
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.allow(10e-3)  # cooldown over: the probe goes out...
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert not breaker.allow(12e-3)  # ...and holds the slot...
    # ...but never resolves; past the deadline the slot re-arms
    assert breaker.allow(15.1e-3)
    breaker.record_success(15.1e-3)
    assert breaker.state == CircuitBreaker.CLOSED


# ---------------------------------------------------------------------------
# Token bucket under a non-monotonic clock
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1, max_size=100,
    ),
    rate=st.floats(min_value=0.5, max_value=100.0),
    capacity=st.floats(min_value=1.0, max_value=8.0),
)
def test_token_bucket_clock_regression_never_conjures_tokens(times, rate, capacity):
    """Out-of-order timestamps (as seen across merged event sources) must
    never credit tokens for time that did not elapse."""
    bucket = TokenBucket(rate=rate, capacity=capacity)
    admitted = 0
    for now in times:  # deliberately not sorted
        if bucket.try_take(now):
            admitted += 1
        assert bucket.tokens <= capacity + 1e-9
    assert admitted <= capacity + rate * max(times) + 1e-6


# ---------------------------------------------------------------------------
# Deadline-aware dispatch retries
# ---------------------------------------------------------------------------

def test_send_minion_fails_fast_instead_of_backing_off_past_deadline():
    """When the next backoff would land beyond the retry deadline, the
    client reports TIMEOUT immediately rather than sleeping into it."""
    node = build_node(ScenarioConfig(
        seed=7,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1),
        retry=RetryPolicy(
            max_attempts=10, base_delay=5e-3, multiplier=1.0,
            max_delay=5e-3, jitter=0.0, deadline=8e-3,
        ),
    ))
    books = BookCorpus(
        CorpusSpec(files=1, mean_file_bytes=16 * 1024, seed=3)
    ).generate()
    node.sim.run(node.sim.process(node.stage_corpus(books, compressed=False)))
    plan = FaultPlan().kill_device(0, "compstor0", at=node.sim.now)
    FaultInjector.for_node(node, plan).start()
    start = node.sim.now

    def go():
        try:
            yield from node.client.send_minion(
                "compstor0", Command(command_line=f"grep x {books[0].name}")
            )
        except InSituError as exc:
            return exc
        return None

    outcome = node.sim.run(node.sim.process(go()))
    assert isinstance(outcome, InSituError)
    assert "TIMEOUT" in str(outcome)
    # it gave up *before* the deadline, not one full backoff after it
    assert node.sim.now - start < 8e-3
