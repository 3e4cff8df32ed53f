"""Traffic cells: one seeded serving run as a hermetic, cacheable job.

``run_traffic_cell`` is the one serving cell: the parallel-runner target
behind the ``traffic`` CLI verb, and the run the metastable drill
(``run_metastable_cell``, the ``drill`` verb) scores.  It serves a
scenario's closed-loop sessions when it has a ``closed_loop`` section and
open-loop arrivals otherwise, with the objstore write mix in either loop
when ``objstore.write_fraction`` is set.  Cells are module-path
addressable, JSON-in / JSON-out and hermetic (the scenario dict is the
entire input), so the result cache can replay a cell from its payload
digest and ``--workers N`` produces byte-identical scorecards.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

from repro.config.codec import scenario_from_dict, to_dict
from repro.config.schema import ClosedLoopConfig, ServiceConfig, TrafficConfig

__all__ = ["run_metastable_cell", "run_traffic_cell"]


def run_traffic_cell(
    scenario: Mapping[str, Any] | None = None,
    mix: str | None = None,
    defenses: bool = True,
) -> dict:
    """Stage, arm faults, serve the whole traffic source, return the
    scorecard payload (a plain JSON dict; see
    :meth:`repro.service.slo.SloReport.to_payload`).

    A scenario with a ``closed_loop`` section serves its sessions; any
    other serves open-loop arrivals (``traffic`` defaults filled in), and
    ``mix`` overrides their pattern.  ``defenses=False`` drops the
    ``overload`` section (retry budget, CoDel, brownout, AIMD): the *same*
    scenario — same digest, seed and fault trigger — with the fixed
    queue-full check and fixed concurrency, the counterfactual the
    metastable drill scores against.
    """
    from repro.config.factory import build_corpus, build_fault_plan, build_fleet
    from repro.config.presets import preset
    from repro.faults import FaultInjector
    from repro.service.frontend import ServiceFrontend

    config = (
        scenario_from_dict(scenario) if scenario is not None else preset("traffic-smoke")
    )
    traffic = None
    if config.closed_loop is None:
        traffic = config.traffic if config.traffic is not None else TrafficConfig()
        if mix is not None:
            traffic = replace(traffic, pattern=mix)
    fleet = build_fleet(config)
    sim = fleet.sim
    books = build_corpus(config)
    sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
    if config.faults.any:
        plan = build_fault_plan(config, fleet.device_ring(), base_time=sim.now)
        FaultInjector.for_fleet(fleet, plan).start()
    store = None
    if config.objstore is not None and config.objstore.write_fraction > 0.0:
        from repro.objstore.dedup import DedupObjectStore

        store = DedupObjectStore(
            fleet, params=config.objstore.params(), replicas=config.objstore.replicas
        )
    frontend = ServiceFrontend(
        fleet,
        config.service if config.service is not None else ServiceConfig(),
        traffic,
        books,
        closed_loop=config.closed_loop,
        overload=config.overload if defenses else None,
        objstore=store,
        objstore_config=config.objstore,
    )
    report = sim.run(sim.process(frontend.run()))
    if store is not None:
        report = replace(report, objstore=store.stats.to_payload())
    return report.to_payload()


def run_metastable_cell(
    scenario: Mapping[str, Any] | None = None, defenses: bool = True
) -> dict:
    """The metastable drill: a closed-loop cell scored for recovery.

    The fault plan's transient window is the *trigger*; goodput (fresh
    completions per window, clients still waiting) is compared before the
    trigger and after it clears.  ``recovered`` means some window starting
    within ``recovery_ms`` of the fault clearing reached ``recovery_bar``
    of the pre-trigger per-window goodput; ``sustained_degradation`` means
    every window from that deadline to the end of the run stayed below the
    bar — the signature of a metastable failure the defenses prevent.
    """
    from repro.config.presets import preset

    config = (
        scenario_from_dict(scenario) if scenario is not None else preset("metastable")
    )
    if config.closed_loop is None:
        config = replace(config, closed_loop=ClosedLoopConfig())
    payload = run_traffic_cell(scenario=to_dict(config), defenses=defenses)
    payload["defenses"] = bool(defenses)

    closed = config.closed_loop
    window_s = closed.goodput_window_ms / 1e3
    windows = payload["goodput"]["windows"]
    # Fault times are ms relative to the armed plan's base time (staging
    # completion), which is also when serving — and window 0 — starts.
    events = config.faults.events
    if not events:
        raise ValueError("metastable drill needs at least one fault event")
    trigger_s = min(e.at_ms for e in events) / 1e3
    clear_s = max(e.at_ms + (e.duration_ms or 0.0) for e in events) / 1e3
    pre = [
        count
        for index, count in enumerate(windows)
        if (index + 1) * window_s <= trigger_s
    ]
    pre_rate = sum(pre) / len(pre) if pre else 0.0
    bar = closed.recovery_bar * pre_rate
    deadline_s = clear_s + closed.recovery_ms / 1e3
    recovered_after_ms: float | None = None
    for index, count in enumerate(windows):
        start = index * window_s
        if start < clear_s or start > deadline_s:
            continue
        if count >= bar:
            recovered_after_ms = (start - clear_s) * 1e3
            break
    # Tail windows must lie fully inside the drive: after ``duration_ms``
    # the sessions stop issuing and the residual queue drains, and that
    # drain burst would read as a spurious "recovery".
    duration_s = closed.duration_ms / 1e3
    tail = [
        count
        for index, count in enumerate(windows)
        if index * window_s >= deadline_s and (index + 1) * window_s <= duration_s
    ]
    payload["metastable"] = {
        "trigger_ms": round(trigger_s * 1e3, 6),
        "clear_ms": round(clear_s * 1e3, 6),
        "pre_goodput_per_window": round(pre_rate, 6),
        "bar": round(bar, 6),
        "recovered": recovered_after_ms is not None,
        "recovered_after_ms": (
            None if recovered_after_ms is None else round(recovered_after_ms, 6)
        ),
        "sustained_degradation": bool(tail) and all(count < bar for count in tail),
    }
    return payload
