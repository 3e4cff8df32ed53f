"""Served requests leave no process state behind.

``EmbeddedOS.process_table`` lists live processes only: a process removes
its own entry when it exits or fails, and its ``OsProcess`` record lives on
only while a holder (the agent's handler, tracker or watchdog, a caller of
``run``) still references it.  :func:`serve_and_check` serves a traffic
preset through the frontend, the same cell as
``repro.service.drill:run_traffic_cell``, and checks:

- at probes spread over the run, each OS's ``running_processes()`` is the
  size of its table, and the live ``OsProcess`` objects a
  ``gc.get_objects()`` scan finds are exactly the table entries;
- after the run drains, with the fleet still alive, every table is empty
  and the scan finds no ``OsProcess`` at all: finished records were freed,
  not kept per served request.

The tier-1 test runs ``traffic-smoke``; ``tests/test_traffic_soak.py`` runs
the same check on the 100k-request ``traffic-soak`` cell (``-m slow``).
"""

from __future__ import annotations

import gc

from repro.config.factory import build_corpus, build_fault_plan, build_fleet
from repro.config.presets import preset
from repro.faults import FaultInjector
from repro.isos.process import OsProcess, ProcessState
from repro.service.drill import run_traffic_cell
from repro.service.frontend import ServiceFrontend


def _process_records(exclude: list[OsProcess]) -> list[OsProcess]:
    """Every ``OsProcess`` the collector tracks, except those in ``exclude``
    (records other tests left for the cyclic collector or still hold)."""
    skip = {id(p) for p in exclude}
    return [
        obj for obj in gc.get_objects()
        if type(obj) is OsProcess and id(obj) not in skip
    ]


def _check_probe(oses, earlier: list[OsProcess]) -> int:
    """Table, telemetry and live records agree; returns the live count."""
    table_pids = sorted(pid for os_ in oses for pid in os_.process_table)
    assert sum(os_.running_processes() for os_ in oses) == len(table_pids)
    records = _process_records(earlier)
    live_pids = sorted(p.pid for p in records if p.state == ProcessState.RUNNING)
    assert live_pids == table_pids
    assert all(
        entry.state == ProcessState.RUNNING
        for os_ in oses for entry in os_.process_table.values()
    )
    return len(table_pids)


def serve_and_check(name: str, probes: int) -> dict:
    """Serve preset ``name`` open-loop, checking retention at ``probes``
    evenly spaced instants of the offered arrival window and after the
    run; returns the scorecard payload."""
    gc.collect()
    earlier = _process_records([])  # held, so their ids stay theirs
    config = preset(name)
    fleet = build_fleet(config)
    sim = fleet.sim
    books = build_corpus(config)
    sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
    if config.faults.any:
        plan = build_fault_plan(config, fleet.device_ring(), base_time=sim.now)
        FaultInjector.for_fleet(fleet, plan).start()
    frontend = ServiceFrontend(fleet, config.service, config.traffic, books)
    served = sim.process(frontend.run())
    oses = [ssd.isps.os for node in fleet.nodes for ssd in node.compstors]
    oses += [node.host.os for node in fleet.nodes if node.host.os is not None]

    # bounded runs process the same events in the same order as one run
    window = config.traffic.requests / config.traffic.rate
    start = sim.now
    peak = 0
    for k in range(1, probes + 1):
        sim.run(until=start + window * k / (probes + 1))
        peak = max(peak, _check_probe(oses, earlier))
    assert peak > 0, "no probe saw a live process"
    report = sim.run(served)
    sim.run()  # the trackers' last polls let go of their records

    assert all(os_.process_table == {} for os_ in oses)
    assert all(os_.running_processes() == 0 for os_ in oses)
    # Reference counting frees every exited record.  A killed one sits in
    # a cycle through its Interrupt's traceback, which the cyclic collector
    # frees.
    assert all(p.state == ProcessState.FAILED for p in _process_records(earlier))
    gc.collect()
    assert _process_records(earlier) == []
    return report.to_payload()


def test_served_smoke_traffic_keeps_no_exited_process():
    payload = serve_and_check("traffic-smoke", probes=8)
    # probing did not change the run: it scores as the traffic verb's cell
    assert payload == run_traffic_cell()
