"""The chaos drill as one hermetic, cacheable cell.

``run_chaos_cell`` is the parallel-runner target behind the ``chaos`` verb:
stage the scenario's corpus on its fleet, arm the scenario's declarative
fault plan (device targets are fleet-wide ring indices, times are ms after
staging completes), run one grep minion per book, then poll fleet health.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["run_chaos_cell"]


def run_chaos_cell(scenario: Mapping[str, Any]) -> dict:
    """The fault plan, degraded-mode job report and fleet health as rows,
    plus the names of any lost minions (JSON-encodable)."""
    from repro.config import (
        build_corpus,
        build_fault_plan,
        build_fleet,
        scenario_from_dict,
    )
    from repro.faults import FaultInjector, FaultPlan
    from repro.proto import Command

    config = scenario_from_dict(scenario)
    fleet = build_fleet(config)
    sim = fleet.sim
    books = build_corpus(config)
    ring = fleet.device_ring()
    sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
    plan = (build_fault_plan(config, ring, base_time=sim.now)
            or FaultPlan(seed=config.seed))
    FaultInjector.for_fleet(fleet, plan).start()

    def job():
        return (yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        ))

    report = sim.run(sim.process(job()))

    def poll():
        return (yield from fleet.health())

    health = sim.run(sim.process(poll()))
    return {
        "seed": config.seed,
        "fingerprint": plan.fingerprint(),
        "plan": plan.describe_rows(),
        "report": report.rows(),
        "health": health.rows(),
        "lost": list(report.lost),
    }
