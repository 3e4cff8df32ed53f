"""The serving families a fleet registry exports equal the scorecard.

With ``obs.metrics=true`` a traffic run exports ``service.*`` counters and
gauges next to every component's. This test reads them back through the
JSON-lines exporter and checks that they state the same facts as the
run's :class:`~repro.service.slo.SloReport`: requests and violations per
class, sheds by reason, completions by serving path (tallied here from
the tracker's completion calls), losses, and on a closed-loop cell with
the overload defenses engaged the CoDel drops, abandoned and stale
requests and retries. It also checks ``requests == admitted + shed`` as
read through the export.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.config import build_corpus, build_fault_plan, build_fleet, preset
from repro.faults import FaultInjector
from repro.obs import to_json_lines
from repro.service.frontend import ServiceFrontend


def serve(name: str):
    """One traffic cell of preset ``name`` with fleet metrics on; returns
    the scorecard, the exported records by family and the completions
    by path."""
    config = preset(name, ("obs.metrics=true",))
    fleet = build_fleet(config)
    sim = fleet.sim
    books = build_corpus(config)
    sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
    if config.faults.any:
        plan = build_fault_plan(config, fleet.device_ring(), base_time=sim.now)
        FaultInjector.for_fleet(fleet, plan).start()
    frontend = ServiceFrontend(
        fleet, config.service, config.traffic, books,
        closed_loop=config.closed_loop, overload=config.overload,
    )
    paths: Counter[str] = Counter()
    record = frontend.tracker.on_complete

    def on_complete(class_name, tenant, latency_s, wait_s, path, *args, **kwargs):
        paths[path] += 1
        return record(class_name, tenant, latency_s, wait_s, path, *args, **kwargs)

    frontend.tracker.on_complete = on_complete
    report = sim.run(sim.process(frontend.run()))
    families: dict[str, list[dict]] = {}
    for line in to_json_lines(fleet.metrics).splitlines():
        entry = json.loads(line)
        if entry["name"].startswith("service."):
            families.setdefault(entry["name"], []).append(entry)
    return report, families, paths


def total(families, name: str, **labels: str) -> int:
    """The exported family ``name`` summed over samples carrying ``labels``."""
    value = sum(
        entry["value"] for entry in families.get(name, ())
        if all(entry["labels"].get(k) == v for k, v in labels.items())
    )
    assert value == int(value), (name, value)
    return int(value)


def check_common(report, families, paths) -> None:
    requests = total(families, "service.requests")
    shed = total(families, "service.shed")
    assert requests == report.requests
    assert requests - shed == report.admitted
    assert requests == report.admitted + report.shed_total
    for reason, count in report.shed.items():
        assert total(families, "service.shed", reason=reason) == count, reason
    assert total(families, "service.completed") == report.completed
    for path, count in paths.items():
        assert total(families, "service.completed", path=path) == count, path
    assert total(families, "service.lost") == report.lost
    assert total(families, "service.slo.violations") == report.violations
    for name, stats in report.per_class.items():
        assert total(families, "service.requests", cls=name) == stats["requests"]
        assert total(families, "service.completed", cls=name) == stats["completed"]
        assert total(families, "service.slo.violations", cls=name) == stats["violations"]
    [depth] = families["service.queue.depth"]
    assert 0 <= depth["value"] <= report.peak_queue


@pytest.mark.parametrize("name", ["traffic-smoke", "traffic-burst"])
def test_open_loop_export_equals_the_scorecard(name):
    report, families, paths = serve(name)
    check_common(report, families, paths)
    assert report.shed_total > 0
    assert report.completed == sum(paths.values()) > 0
    for family in ("service.dropped", "service.stale", "service.abandoned",
                   "service.retries", "service.concurrency"):
        assert family not in families, family


def test_closed_loop_overload_export_equals_the_scorecard():
    report, families, paths = serve("traffic-closedloop")
    check_common(report, families, paths)
    closed = report.closed
    assert total(families, "service.dropped") == report.dropped
    assert total(families, "service.dropped", reason="codel") == report.dropped
    assert total(families, "service.abandoned") == closed["abandoned"]
    assert total(families, "service.stale") == closed["stale"]
    assert total(families, "service.retries") == closed["retried"]
    assert report.dropped + closed["abandoned"] + closed["retried"] > 0
    [concurrency] = families["service.concurrency"]
    assert concurrency["value"] == report.aimd["final"]
