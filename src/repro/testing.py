"""Hermetic-run helpers for tests and reproducibility tooling.

Two concerns live here:

**Fresh-process state.**  The model keeps a few process-global ID
allocators (minion/query IDs, PIDs, NVMe CIDs) whose values end up in
trace payloads and responses.  They make IDs unique across every
simulator in a process, but they also make a scenario's observable output
depend on what ran *earlier* in the process — which breaks digest-style
comparisons across runs.  :func:`reset_global_ids` restores fresh-process
allocation state.  The test suite applies it before every test
(``tests/conftest.py``), the golden-schedule scenarios call it directly,
and the parallel runner's workers call it before every job, so digests
are a pure function of ``(seed, model)`` no matter who runs them.

**Golden-schedule scenarios.**  The three pinned scenarios whose trace
digests must never drift (see ``tests/test_golden_schedules.py`` for the
recorded hashes and the re-record procedure).  They live in the package —
not the test tree — so ``spawn`` workers and the parallel experiment
matrix can run them too: :func:`golden_scenario_job` is the runner-facing
work item, and serial-vs-parallel digest equality is the proof that the
process-pool merge is bit-identical.
"""

from __future__ import annotations

import hashlib
from enum import Enum

__all__ = [
    "GOLDEN_SCENARIO_ORDER",
    "canonical_value",
    "golden_scenario_job",
    "golden_scenarios",
    "reset_global_ids",
    "schedule_digest",
]


def reset_global_ids() -> None:
    """Restart every process-global ID allocator (fresh-process state).

    Also drops the process-wide codec payload memo: content addressing
    keeps a warm cache *correct*, but a pool worker reusing it across jobs
    grows memory unboundedly over a long matrix run and lets overhead
    benches observe another job's warm-cache timings.
    """
    from repro.apps.compress import clear_payload_cache
    from repro.isos import process as isos_process
    from repro.nvme import commands as nvme_commands
    from repro.proto import entities

    entities.reset_ids()
    isos_process.reset_ids()
    nvme_commands.reset_ids()
    clear_payload_cache()


# -- canonical hashing ------------------------------------------------------


def canonical_value(value) -> str:
    """A stable, type-tagged string for anything a trace detail can hold.

    Floats go through ``repr`` (exact shortest round-trip form, so any bit
    change in a computed time shows up); containers recurse in deterministic
    order.
    """
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, bytes):
        return f"y:{value.hex()}"
    if isinstance(value, Enum):
        return f"e:{value.value}"
    if value is None:
        return "n"
    if isinstance(value, dict):
        items = ",".join(
            f"{canonical_value(k)}={canonical_value(v)}"
            for k, v in sorted(value.items(), key=repr)
        )
        return f"d:{{{items}}}"
    if isinstance(value, (list, tuple)):
        return f"l:[{','.join(canonical_value(v) for v in value)}]"
    return f"r:{value!r}"


def schedule_digest(tracer, extras: dict) -> str:
    """SHA-256 over every trace record in emission order, plus terminal state."""
    h = hashlib.sha256()
    for rec in tracer:
        h.update(
            f"{rec.time!r}|{rec.component}|{rec.kind}|"
            f"{canonical_value(rec.detail)}\n".encode()
        )
    h.update(canonical_value(extras).encode())
    return h.hexdigest()


# -- pinned golden scenarios ------------------------------------------------


def scenario_single_gzip():
    """One CompStor, one gzip minion over a staged two-book corpus."""
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
    from repro.sim import Tracer
    from repro.workloads import BookCorpus, CorpusSpec

    reset_global_ids()  # hermetic: digests are pure functions of (seed, model)
    tracer = Tracer()
    books = BookCorpus(CorpusSpec(files=2, mean_file_bytes=24 * 1024, seed=3)).generate()
    node = build_node(
        ScenarioConfig(
            seed=11,
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(devices_per_node=1),
        ),
        tracer=tracer,
    )
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))

    def job():
        responses = []
        for book in books:
            response = yield from node.client.run(
                "compstor0", f"gzip {book.name}"
            )
            responses.append(response)
        return responses

    responses = sim.run(sim.process(job()))
    extras = {
        "finished_at": sim.now,
        "stdout": [r.stdout for r in responses],
        "exec_seconds": [r.execution_seconds for r in responses],
        "flash": [
            node.compstors[0].flash.stats.reads,
            node.compstors[0].flash.stats.programs,
        ],
    }
    return tracer, extras


def scenario_fleet_grep():
    """2 nodes x 2 devices, one replicated ``run_job`` grep sweep."""
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
    from repro.proto import Command
    from repro.sim import Tracer
    from repro.workloads import BookCorpus, CorpusSpec

    reset_global_ids()
    tracer = Tracer()
    fleet = build_fleet(
        ScenarioConfig(
            seed=7,
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(nodes=2, devices_per_node=2),
        ),
        tracer=tracer,
    )
    sim = fleet.sim
    books = BookCorpus(
        CorpusSpec(files=8, mean_file_bytes=24 * 1024, seed=5)
    ).generate()
    sim.run(sim.process(fleet.stage_corpus(books, replicas=2)))

    def job():
        return (
            yield from fleet.run_job(
                books, lambda b: Command(command_line=f"grep xylophone {b.name}")
            )
        )

    report = sim.run(sim.process(job()))
    extras = {
        "finished_at": sim.now,
        "statuses": [None if r is None else r.status.value for r in report.responses],
        "stdout": [None if r is None else r.stdout for r in report.responses],
        "accounting": [
            report.dispatched, report.completed, report.recovered,
            list(report.lost), report.retries, report.failovers,
            report.host_fallbacks,
        ],
    }
    return tracer, extras


def scenario_chaos_drill():
    """Replicated fleet job under a fixed fault plan (crash + transients)."""
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
    from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
    from repro.proto import Command
    from repro.sim import Tracer
    from repro.workloads import BookCorpus, CorpusSpec

    reset_global_ids()
    tracer = Tracer()
    fleet = build_fleet(
        ScenarioConfig(
            seed=13,
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(nodes=2, devices_per_node=2),
            retry=RetryPolicy(),
            breaker=BreakerConfig(),
        ),
        tracer=tracer,
    )
    sim = fleet.sim
    books = BookCorpus(
        CorpusSpec(files=6, mean_file_bytes=16 * 1024, seed=13)
    ).generate()
    sim.run(sim.process(fleet.stage_corpus(books, replicas=2)))
    ring = fleet.device_ring()
    plan = (
        FaultPlan(seed=13)
        .kill_device(*ring[1], at=sim.now + 2e-4, recover_after=2e-3)
        .transient_window(*ring[2], at=sim.now, duration=1e-3, fraction=0.5)
    )
    injector = FaultInjector.for_fleet(fleet, plan).start()

    def job():
        return (
            yield from fleet.run_job(
                books, lambda b: Command(command_line=f"grep xylophone {b.name}")
            )
        )

    report = sim.run(sim.process(job()))
    extras = {
        "fingerprint": plan.fingerprint(),
        "applied": list(injector.applied),
        "finished_at": sim.now,
        "statuses": [None if r is None else r.status.value for r in report.responses],
        "accounting": [
            report.dispatched, report.completed, report.recovered,
            list(report.lost), report.retries, report.failovers,
            report.host_fallbacks,
        ],
    }
    return tracer, extras


#: Scenario builders in pinned order; each returns ``(tracer, extras)``.
GOLDEN_SCENARIOS = {
    "single_gzip": scenario_single_gzip,
    "fleet_grep": scenario_fleet_grep,
    "chaos_drill": scenario_chaos_drill,
}
GOLDEN_SCENARIO_ORDER: tuple[str, ...] = tuple(GOLDEN_SCENARIOS)


def golden_scenarios():
    """The scenario registry (name -> builder), in pinned order."""
    return dict(GOLDEN_SCENARIOS)


def golden_scenario_job(name: str) -> dict:
    """Run one golden scenario; parallel-runner work item.

    Returns the schedule digest plus the record count, both pure functions
    of ``(seed, model)`` — so any cross-process divergence (worker import
    order, spawn environment) is caught by digest comparison.
    """
    tracer, extras = GOLDEN_SCENARIOS[name]()
    return {
        "scenario": name,
        "records": len(tracer),
        "digest": schedule_digest(tracer, extras),
    }
