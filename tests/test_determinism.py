"""Reproducibility: identical seeds give bit-identical runs.

For a simulator this is a headline feature — every number in
EXPERIMENTS.md must be reproducible from ``(seed, model, workload)``.
"""

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet, build_node
from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec


def run_once(seed):
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=32 * 1024)).generate()
    node = build_node(ScenarioConfig(
        seed=seed,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=2),
    ))
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    assignments = [
        (device, Command(command_line=f"grep xylophone {book.name}"))
        for device, part in node.device_books(books).items()
        for book in part
    ]
    mark = node.meter.snapshot()

    def job():
        return (yield from node.client.gather(assignments))

    responses = sim.run(sim.process(job()))
    report = node.meter.window(mark)
    return {
        "finished_at": sim.now,
        "stdout": tuple(r.stdout for r in responses),
        "exec_seconds": tuple(r.execution_seconds for r in responses),
        "energy": report.total_j,
        "flash_ops": (
            node.compstors[0].flash.stats.reads,
            node.compstors[0].flash.stats.programs,
        ),
    }


def test_same_seed_bit_identical():
    a = run_once(seed=42)
    b = run_once(seed=42)
    assert a == b


def test_different_seed_keeps_functional_results():
    """Different seeds change the random streams (BER draws), but never the
    functional results.  Note the *timing* may coincide: at the default
    raw BER (~1e-6) a short run frequently draws zero bit errors under any
    seed, so identical finish times across seeds are legitimate."""
    a = run_once(seed=1)
    b = run_once(seed=2)
    assert a["stdout"] == b["stdout"]  # correctness is seed-independent
    assert a["flash_ops"] == b["flash_ops"]  # op counts too

    from repro.sim import Simulator

    # the underlying streams really do differ per seed
    assert Simulator(seed=1).rng("flash").random() != Simulator(seed=2).rng("flash").random()


def test_corpus_generation_independent_of_simulator():
    """The corpus derives from its own spec seed, not the simulator seed."""
    a = BookCorpus(CorpusSpec(files=2, seed=7)).generate()
    b = BookCorpus(CorpusSpec(files=2, seed=7)).generate()
    assert [x.plain for x in a] == [y.plain for y in b]


def run_chaos_once(seed):
    """A replicated fleet job under a fixed fault plan: crash + transients.

    Everything the run produces — the plan digest, the injector's applied
    log, every response status, the recovery accounting, the finish time —
    must be a pure function of the seed.
    """
    fleet = build_fleet(ScenarioConfig(
        seed=seed,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
    ))
    sim = fleet.sim
    books = BookCorpus(CorpusSpec(files=6, mean_file_bytes=16 * 1024, seed=seed)).generate()
    sim.run(sim.process(fleet.stage_corpus(books, replicas=2)))
    ring = fleet.device_ring()
    plan = (
        FaultPlan(seed=seed)
        .kill_device(*ring[1], at=sim.now + 2e-4, recover_after=2e-3)
        .transient_window(*ring[2], at=sim.now, duration=1e-3, fraction=0.5)
    )
    injector = FaultInjector.for_fleet(fleet, plan).start()

    def job():
        return (yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        ))

    report = sim.run(sim.process(job()))
    return {
        "fingerprint": plan.fingerprint(),
        "applied": tuple(injector.applied),
        "finished_at": sim.now,
        "statuses": tuple(
            None if r is None else r.status.value for r in report.responses
        ),
        "stdout": tuple(None if r is None else r.stdout for r in report.responses),
        "accounting": (
            report.dispatched, report.completed, report.recovered, report.lost,
            report.retries, report.failovers, report.host_fallbacks,
        ),
    }


def test_chaos_same_seed_bit_identical():
    """Faults, retries, backoff jitter, failover — all replayable."""
    a = run_chaos_once(seed=5)
    b = run_chaos_once(seed=5)
    assert a == b
    assert a["accounting"][0] == sum(a["accounting"][1:3]) + len(a["accounting"][3])
