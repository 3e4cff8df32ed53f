"""Simulator wall-clock regression guard.

Compares measured ``events_per_sec`` on the pinned ``small`` and
``zoned-n8`` scenarios against the committed baseline (``BENCH_sim.json``, written by ``python -m repro bench``).  A
regression of more than 25% fails; when no baseline has been recorded
(fresh clone, or a host that never ran the bench) the guard skips rather
than guessing.

Wall-clock measurements on shared CI hosts are noisy, so a miss is
confirmed before failing: the scenario is re-measured once with more
repetitions and only a repeated miss is reported.  The schedules
themselves are deterministic (see ``tests/test_golden_schedules.py``),
so the event-count cross-checks below are exact, and only host speed
varies between runs.
"""

from __future__ import annotations

import pytest

from repro.analysis.perf import SCENARIOS, load_bench_json, run_scenario

#: events/sec may drop to 75% of baseline before this guard trips.
REGRESSION_FLOOR = 0.75


def test_events_per_sec_within_regression_budget():
    baseline = load_bench_json()
    if baseline is None:
        pytest.skip("no BENCH_sim.json baseline recorded (run: python -m repro bench)")
    recorded = baseline["scenarios"].get("small")
    if recorded is None:
        pytest.skip("baseline has no 'small' scenario; re-record with python -m repro bench")

    floor = recorded["events_per_sec"] * REGRESSION_FLOOR
    result = run_scenario(SCENARIOS["small"], repeat=3)
    # Schedule determinism cross-check first: if the event count drifted,
    # the schedule changed and events/sec is not comparable at all.
    assert result.events == recorded["events"], (
        f"event count drifted ({result.events} vs {recorded['events']}): the "
        f"schedule changed, so events/sec is not comparable — re-record the "
        f"baseline and explain the drift"
    )
    if result.events_per_sec < floor:
        # One retry with more repetitions: a single slow reading on a busy
        # host is noise; a repeated one is a regression.
        result = run_scenario(SCENARIOS["small"], repeat=5)
    assert result.events_per_sec >= floor, (
        f"simulator throughput regressed: {result.events_per_sec:,.0f} events/s "
        f"vs baseline {recorded['events_per_sec']:,.0f} (floor {floor:,.0f}); "
        f"re-record BENCH_sim.json if a model change made schedules heavier"
    )


def test_zoned_events_per_sec_within_regression_budget():
    """The zoned (ZNS) backend's lane, guarded the same way.

    The zoned FTL replaces per-page GC with whole-zone copy-forward, so its
    schedule — and therefore its event count — differs from the page lane;
    this guard pins that schedule and its wall-clock rate independently.
    """
    baseline = load_bench_json()
    if baseline is None:
        pytest.skip("no BENCH_sim.json baseline recorded (run: python -m repro bench)")
    recorded = baseline["scenarios"].get("zoned-n8")
    if recorded is None:
        pytest.skip("baseline has no 'zoned-n8' scenario; re-record with "
                    "python -m repro bench --scenario zoned-n8")

    floor = recorded["events_per_sec"] * REGRESSION_FLOOR
    result = run_scenario(SCENARIOS["zoned-n8"], repeat=2)
    # Determinism cross-check: the zoned schedule must replay the recorded
    # event count exactly before the rate comparison means anything.
    assert result.events == recorded["events"], (
        f"zoned event count drifted ({result.events} vs {recorded['events']}): "
        f"the schedule changed, so events/sec is not comparable — re-record "
        f"the baseline and explain the drift"
    )
    if result.events_per_sec < floor:
        result = run_scenario(SCENARIOS["zoned-n8"], repeat=4)
    assert result.events_per_sec >= floor, (
        f"zoned backend throughput regressed: {result.events_per_sec:,.0f} "
        f"events/s vs baseline {recorded['events_per_sec']:,.0f} "
        f"(floor {floor:,.0f})"
    )
