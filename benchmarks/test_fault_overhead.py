"""Fault-subsystem overhead guard (companion to test_obs_overhead.py).

The fault layer's contract is that *disabled* chaos costs nothing: devices
keep ``faults = None`` until an injector names them, the client's retry
loop collapses to the historical single attempt when no policy is set,
and an armed-but-empty plan schedules zero simulation events.

Two properties are asserted:

1. **Schedule neutrality** — the simulated clock and every response are
   bit-identical whether the fault machinery is absent, configured but
   idle (retry policy + breakers + an empty armed plan), or never built.
2. **Wall-clock overhead** — the armed-but-idle mode stays within 5% of
   the plain fast path (best-of-N timing for CI stability).
"""

import time

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet, build_node
from repro.faults import BreakerConfig, FaultInjector, FaultPlan, RetryPolicy
from repro.proto import Command
from repro.workloads import BookCorpus, CorpusSpec

ROUNDS = 5
OVERHEAD_BUDGET = 1.10  # armed-but-idle wall clock <= 110% of baseline


def rig(armed: bool, nodes: int, devices: int) -> ScenarioConfig:
    """24 MiB drives; ``armed`` adds the retry policy and circuit breakers."""
    return ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=nodes, devices_per_node=devices),
        retry=RetryPolicy() if armed else None,
        breaker=BreakerConfig() if armed else None,
    )


def run_node_workload(armed=False, files=8):
    """One node, four devices, one grep minion per book (``files`` books);
    returns the schedule-identity tuple (finish time + every stdout)."""
    node = build_node(rig(armed, nodes=1, devices=4))
    sim = node.sim
    if armed:
        FaultInjector.for_node(node, FaultPlan()).start()
    books = BookCorpus(CorpusSpec(files=files, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    assignments = [
        (device, Command(command_line=f"grep xylophone {book.name}"))
        for device, part in node.device_books(books).items()
        for book in part
    ]

    def job():
        return (yield from node.client.gather(assignments))

    responses = sim.run(sim.process(job()))
    return sim.now, tuple(r.stdout for r in responses)


def run_fleet_workload(armed=False):
    """Fleet-level identity: run_job with no faults must schedule exactly
    like a fleet that never built the recovery machinery."""
    fleet = build_fleet(rig(armed, nodes=2, devices=2))
    sim = fleet.sim
    if armed:
        FaultInjector.for_fleet(fleet, FaultPlan()).start()
    books = BookCorpus(CorpusSpec(files=8, mean_file_bytes=32 * 1024)).generate()
    sim.run(sim.process(fleet.stage_corpus(books)))

    def job():
        return (yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        ))

    report = sim.run(sim.process(job()))
    assert report.completed == report.dispatched and not report.degraded
    return sim.now, tuple(r.stdout for r in report.responses)


def best_of_interleaved(a, b, rounds=ROUNDS):
    """Best wall clock of each callable, alternating runs so slow drift in
    the machine (thermal, noisy neighbours) hits both sides equally."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_idle_fault_machinery_is_schedule_neutral():
    assert run_node_workload() == run_node_workload(armed=True), (
        "idle retry/breaker/injector machinery perturbed the node schedule"
    )
    assert run_fleet_workload() == run_fleet_workload(armed=True), (
        "idle fault machinery perturbed the fleet run_job schedule"
    )


def test_idle_fault_machinery_is_cheap():
    base_wall, armed_wall = best_of_interleaved(
        run_node_workload, lambda: run_node_workload(armed=True)
    )
    ratio = armed_wall / base_wall
    print(
        f"\nfault overhead: baseline={base_wall * 1e3:.1f} ms "
        f"armed-idle={armed_wall * 1e3:.1f} ms ratio={ratio:.3f}"
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"idle fault machinery costs {(ratio - 1) * 100:.1f}% wall clock "
        f"(budget {(OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )
