"""Ablation — telemetry-driven vs round-robin minion placement.

DESIGN.md decision under test: the paper exposes per-device telemetry
"for load balancing".  With one device pre-loaded with a long job, the
least-loaded policy should finish a task burst faster than blind
round-robin.
"""

from repro.analysis.experiments import format_series_table
from repro.cluster import (
    LeastLoadedBalancer,
    MinionDispatcher,
    RoundRobinBalancer,
)
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.proto import Command

BURST = 12


def run_policy(balancer_factory):
    node = build_node(ScenarioConfig(
        seed=3,
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=3),
    ))
    sim = node.sim

    cores = node.compstors[0].isps.cluster.spec.cores

    def stage():
        for ssd in node.compstors:
            yield from ssd.fs.write_file("task.txt", b"fox payload line\n" * 4000)
        for i in range(cores):  # enough hogs to saturate every ISPS core
            yield from node.compstors[0].fs.write_file(
                f"huge{i}.txt", b"fox filler\n" * 60000
            )

    sim.run(sim.process(stage()))

    def experiment():
        hogs = [
            sim.process(node.client.run("compstor0", f"bzip2 huge{i}.txt"))
            for i in range(cores)
        ]
        yield sim.timeout(2e-3)
        dispatcher = MinionDispatcher(node.client, balancer_factory())
        start = sim.now
        responses = yield from dispatcher.submit_all(
            [Command(command_line="gawk fox task.txt") for _ in range(BURST)]
        )
        elapsed = sim.now - start
        assert all(r.ok for r in responses)
        yield sim.all_of(hogs)
        return elapsed, dispatcher.device_share()

    return sim.run(sim.process(experiment()))


def test_ablation_load_balancing(benchmark):
    def experiment():
        rr = run_policy(RoundRobinBalancer)
        ll = run_policy(LeastLoadedBalancer)
        return rr, ll

    (rr_time, rr_share), (ll_time, ll_share) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    print("\n" + format_series_table(
        "Ablation — placing a 12-task burst while compstor0 is busy",
        ["policy", "burst completion (s)", "placement"],
        [
            ["round-robin", rr_time, str(dict(sorted(rr_share.items())))],
            ["least-loaded", ll_time, str(dict(sorted(ll_share.items())))],
        ],
    ))

    # telemetry-driven placement routes work away from the busy device...
    assert ll_share.get("compstor0", 0) < rr_share.get("compstor0", 0)
    # ...and completes the burst at least 10% faster
    assert ll_time < 0.9 * rr_time
