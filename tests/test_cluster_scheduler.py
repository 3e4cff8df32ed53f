"""Tests for minion placement policies and the dispatcher."""

from repro.cluster import (
    LeastLoadedBalancer,
    MinionDispatcher,
    RoundRobinBalancer,
)
from repro.config import FlashConfig, FleetConfig, ScenarioConfig
from repro.config import build_node as build_node_from
from repro.proto import Command
from tests.test_obs_metrics import sample


def build_node(devices=3):
    return build_node_from(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=16 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=devices),
    ))


def stage_everywhere(node, name, data):
    def flow():
        for ssd in node.compstors:
            yield from ssd.fs.write_file(name, data)

    node.sim.run(node.sim.process(flow()))


def test_round_robin_spreads_evenly():
    node = build_node(devices=3)
    stage_everywhere(node, "f.txt", b"fox\n" * 20)
    dispatcher = MinionDispatcher(node.client, RoundRobinBalancer())

    def flow():
        commands = [Command(command_line="grep fox f.txt") for _ in range(9)]
        return (yield from dispatcher.submit_all(commands))

    responses = node.sim.run(node.sim.process(flow()))
    assert all(r.ok for r in responses)
    assert dispatcher.device_share() == {"compstor0": 3, "compstor1": 3, "compstor2": 3}


def test_least_loaded_avoids_busy_device():
    node = build_node(devices=2)
    stage_everywhere(node, "f.txt", b"fox\n" * 20)
    # occupy compstor0 with a long-running scan
    stage_everywhere(node, "big.txt", b"fox filler line\n" * 20000)

    def flow():
        hog = node.sim.process(node.client.run("compstor0", "grep fox big.txt"))
        yield node.sim.timeout(2e-3)  # let the hog start
        balancer = LeastLoadedBalancer()
        dispatcher = MinionDispatcher(node.client, balancer)
        responses = yield from dispatcher.submit_all(
            [Command(command_line="grep fox f.txt") for _ in range(4)]
        )
        yield hog
        return responses, dispatcher.device_share()

    responses, share = node.sim.run(node.sim.process(flow()))
    assert all(r.ok for r in responses)
    # the idle device should receive the bulk of the work
    assert share.get("compstor1", 0) >= 3


def test_telemetry_placement_beats_round_robin_under_skew():
    """The paper's load-balancing pitch: telemetry-driven placement should
    finish a skewed workload faster than oblivious rotation, because
    round-robin keeps feeding the device that is already busy.  bzip2 is the
    CPU-bound app, so sharing the quad-A53 with the hogs genuinely hurts."""

    def run(balancer_factory):
        node = build_node(devices=2)
        for i in range(8):
            stage_everywhere(node, f"f{i}.txt", b"fox filler line\n" * 500)
        for i in range(3):
            stage_everywhere(node, f"big{i}.txt", b"fox filler line\n" * 10000)
        sim = node.sim

        def flow():
            # skew: 3 of compstor0's 4 A53 cores are hogged by long
            # compressions before placement runs
            hogs = [
                sim.process(node.client.run("compstor0", f"bzip2 big{i}.txt"))
                for i in range(3)
            ]
            yield sim.timeout(2e-3)
            dispatcher = MinionDispatcher(node.client, balancer_factory())
            start = sim.now
            yield from dispatcher.submit_all(
                [Command(command_line=f"bzip2 f{i}.txt") for i in range(8)]
            )
            elapsed = sim.now - start
            for hog in hogs:
                yield hog
            return elapsed, dispatcher.device_share()

        return sim.run(sim.process(flow()))

    rr_elapsed, rr_share = run(RoundRobinBalancer)
    ll_elapsed, ll_share = run(LeastLoadedBalancer)
    # round-robin split the work evenly despite the hogs...
    assert rr_share == {"compstor0": 4, "compstor1": 4}
    # ...while telemetry routed the bulk to the idle device and won
    assert ll_share.get("compstor1", 0) > ll_share.get("compstor0", 0)
    assert ll_elapsed < rr_elapsed


def test_dispatcher_placement_counter():
    from repro.obs import MetricsRegistry

    node = build_node(devices=2)
    stage_everywhere(node, "f.txt", b"fox\n")
    metrics = MetricsRegistry(clock=lambda: node.sim.now)
    dispatcher = MinionDispatcher(node.client, RoundRobinBalancer(), metrics=metrics)

    def flow():
        return (
            yield from dispatcher.submit_all([Command(command_line="grep fox f.txt")] * 4)
        )

    node.sim.run(node.sim.process(flow()))
    counter = metrics["cluster.placements"]
    assert sample(counter, device="compstor0", policy="round-robin") == 2
    assert sample(counter, device="compstor1", policy="round-robin") == 2


def test_dispatcher_records_placements():
    node = build_node(devices=2)
    stage_everywhere(node, "f.txt", b"fox\n")
    dispatcher = MinionDispatcher(node.client, RoundRobinBalancer())

    def flow():
        return (
            yield from dispatcher.submit_all([Command(command_line="grep fox f.txt")] * 2)
        )

    node.sim.run(node.sim.process(flow()))
    assert len(dispatcher.placements) == 2
    devices = [d for d, _ in dispatcher.placements]
    assert set(devices) == {"compstor0", "compstor1"}


def test_least_loaded_ties_break_in_attachment_order():
    """Regression: equal load scores used to tie-break lexicographically,
    which puts "compstor10" ahead of "compstor2" — placement (and any
    fairness result built on it) then depends on how devices happen to be
    named.  Ties must break by stable attachment order instead."""

    class _Snap:
        def __init__(self, score):
            self._score = score

        def load_score(self):
            return self._score

    class _Client:
        """Just enough of InSituClient for LeastLoadedBalancer.pick."""

        def __init__(self, names, scores=None):
            self._names = list(names)
            self._scores = scores or {}

        def devices(self):
            return list(self._names)

        def breaker_state(self, _name):
            return "closed"

        def status_all(self, return_exceptions=False):
            # worst-case iteration order: reversed, to prove the pick does
            # not depend on dict order either
            return {n: _Snap(self._scores.get(n, 0.0)) for n in reversed(self._names)}
            yield  # pragma: no cover - generator protocol

    def pick(client):
        gen = LeastLoadedBalancer().pick(client)
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value
        raise AssertionError("pick should finish without waiting")

    # attachment order wins over lexicographic order on a tie
    assert pick(_Client(["compstor2", "compstor10"])) == "compstor2"
    # sanity: lexicographic order would have said compstor10
    assert min(["compstor2", "compstor10"]) == "compstor10"
    # twelve devices, all idle: always the first attached
    names = [f"compstor{i}" for i in range(12)]
    assert pick(_Client(names)) == "compstor0"
    # a lower load score still beats attachment order
    assert pick(_Client(names, scores={"compstor7": -1.0})) == "compstor7"
