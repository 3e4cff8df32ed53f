"""End-to-end failure recovery at fleet scale (the PR's acceptance bar).

A fleet job run over >= 4 devices with one device killed mid-job must
complete via replica failover, lose zero minions while a surviving replica
exists, and account for every minion: ``completed + recovered + lost ==
dispatched``.  The hypothesis drill hardens that accounting identity
against randomized fault schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StorageFleet
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.config import build_fleet as build_fleet_from
from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
from repro.proto import Command, ResponseStatus
from repro.workloads import BookCorpus, CorpusSpec


def grep(book):
    return Command(command_line=f"grep xylophone {book.name}")


def answered(response):
    """A real application outcome (grep exits 1 on zero matches)."""
    return response is not None and response.status in (
        ResponseStatus.OK,
        ResponseStatus.APP_ERROR,
    )


def build_fleet(
    seed=0, books=8, replicas=2, retry=RetryPolicy(), breaker=BreakerConfig()
):
    fleet = build_fleet_from(ScenarioConfig(
        seed=seed,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2),
        retry=retry,
        breaker=breaker,
    ))
    corpus = BookCorpus(
        CorpusSpec(files=books, mean_file_bytes=16 * 1024, seed=seed)
    ).generate()
    fleet.sim.run(
        fleet.sim.process(fleet.stage_corpus(corpus, replicas=replicas))
    )
    return fleet, corpus


def run_job(fleet, corpus):
    def job():
        return (yield from fleet.run_job(corpus, grep))

    return fleet.sim.run(fleet.sim.process(job()))


def poll_health(fleet):
    def poll():
        return (yield from fleet.health())

    return fleet.sim.run(fleet.sim.process(poll()))


def test_device_killed_mid_job_loses_nothing_with_replicas():
    fleet, corpus = build_fleet(replicas=2)
    victim = fleet.device_ring()[1]
    plan = FaultPlan().kill_device(*victim, at=fleet.sim.now + 2e-4)
    FaultInjector.for_fleet(fleet, plan).start()

    report = run_job(fleet, corpus)
    assert report.dispatched == len(corpus)
    assert report.accounted == report.dispatched
    assert report.lost == ()
    assert report.recovered > 0 and report.failovers > 0
    assert report.degraded
    # every slot answered, and the answers are real
    assert all(answered(r) for r in report.responses)
    # unpacking still works as the historical 2-tuple
    responses, wall = report
    assert responses is report.responses and wall == report.wall_seconds

    health = poll_health(fleet)
    assert f"node{victim[0]}/{victim[1]}" in health.unreachable_devices
    assert health.failovers == report.failovers
    assert health.lost_minions == 0
    assert any("unreachable" in alert for alert in health.alerts)


def test_no_surviving_replica_falls_back_to_the_host():
    """With a single copy per book and the host holding the dataset, a dead
    device's minions complete host-side (the paper's baseline path doubles
    as the last-resort degraded mode)."""
    node = build_node(ScenarioConfig(
        seed=0,
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=2, with_baseline_ssd=True),
        retry=RetryPolicy(),
        breaker=BreakerConfig(),
    ))
    corpus = BookCorpus(
        CorpusSpec(files=4, mean_file_bytes=16 * 1024, seed=0)
    ).generate()
    node.sim.run(
        node.sim.process(
            node.stage_corpus(corpus, compressed=False, include_host=True)
        )
    )
    fleet = StorageFleet(node.sim, [node])
    plan = FaultPlan().kill_device(0, "compstor0", at=fleet.sim.now)
    FaultInjector.for_fleet(fleet, plan).start()

    report = run_job(fleet, corpus)
    assert report.lost == ()
    assert report.accounted == report.dispatched == len(corpus)
    assert report.host_fallbacks > 0 and report.failovers == 0
    rescued = [r for r in report.responses if r.device == "host"]
    assert len(rescued) == report.host_fallbacks
    assert all(answered(r) for r in report.responses)

    health = poll_health(fleet)
    assert health.host_fallbacks == report.host_fallbacks
    assert "node0/compstor0" in health.unreachable_devices


def test_losses_are_reported_not_raised():
    """No replicas, no host copy: the dead device's minions are *lost*,
    loudly — accounting still closes and the job still returns."""
    fleet, corpus = build_fleet(books=4, replicas=1)
    plan = FaultPlan().kill_device(*fleet.device_ring()[0], at=fleet.sim.now)
    FaultInjector.for_fleet(fleet, plan).start()
    report = run_job(fleet, corpus)
    assert report.lost  # something was genuinely unrecoverable
    assert report.accounted == report.dispatched
    assert all(
        (r is None) == (book.name in report.lost)
        for r, book in zip(report.responses, corpus)
    )
    health = poll_health(fleet)
    assert health.lost_minions == len(report.lost)
    assert any("lost" in alert for alert in health.alerts)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_chaos_always_terminates_with_closed_accounting(seed):
    """Whatever a random fault schedule does — permanent crashes, agent
    restarts, transient storms, limping drives — the job terminates and
    every minion lands in exactly one bucket."""
    fleet, corpus = build_fleet(
        seed=seed,
        books=4,
        replicas=2,
        retry=RetryPolicy(max_attempts=3, deadline=50e-3),
        breaker=BreakerConfig(failure_threshold=3, cooldown=5e-3),
    )
    plan = FaultPlan.random(
        seed, fleet.device_ring(), horizon=fleet.sim.now + 5e-3, faults=3
    )
    FaultInjector.for_fleet(fleet, plan).start()
    report = run_job(fleet, corpus)
    assert len(report.responses) == report.dispatched == len(corpus)
    assert report.completed + report.recovered + len(report.lost) == report.dispatched
    assert all(r is None for r, b in zip(report.responses, corpus) if b.name in report.lost)
    health = poll_health(fleet)
    assert health.lost_minions == len(report.lost)


def test_second_corpus_staging_preserves_first_corpus_chains():
    """Regression: ``stage_corpus`` used to rebuild the replica map from
    scratch, wiping the chains of every previously staged corpus — so a
    primary crash after staging a second corpus lost first-corpus minions
    instead of failing over."""
    from dataclasses import replace

    fleet, first = build_fleet(replicas=2)
    chains_before = {b.name: list(fleet._replica_map[b.name]) for b in first}
    assert all(len(chain) == 2 for chain in chains_before.values())
    second = [
        replace(b, name=f"alt_{b.name}")
        for b in BookCorpus(
            CorpusSpec(files=4, mean_file_bytes=16 * 1024, seed=3)
        ).generate()
    ]
    fleet.sim.run(fleet.sim.process(fleet.stage_corpus(second, replicas=2)))
    # chains recorded by the first staging must survive the second, verbatim
    for book in first:
        assert list(fleet._replica_map[book.name]) == chains_before[book.name]
    # and they must still be *live*: crash a first-corpus primary mid-job
    victim = chains_before[first[0].name][0]
    plan = FaultPlan().kill_device(*victim, at=fleet.sim.now + 2e-4)
    FaultInjector.for_fleet(fleet, plan).start()
    report = run_job(fleet, first)
    assert report.lost == ()
    assert report.failovers > 0
    assert all(answered(r) for r in report.responses)
