"""Pinned metric exports and the pull-view contract.

Components keep one count per fact and the registry reads it at export
(``MetricsRegistry.counter_view``/``gauge_view``). The digests below pin
the counter and histogram families of the Prometheus text of three runs:

(a) the ``repro metrics`` verb at its defaults;
(b) the ``chaos-drill`` fleet with ``obs.metrics=true`` run through its
    fault plan, so failovers, retries, breaker transitions and fault
    counters are all non-zero;
(c) one ``smoke`` node with ``obs.metrics=true`` under overwrite churn
    long enough to run GC and to hit the write buffer on reads.

(a) and (c) were recorded when every counter was still pushed by hand,
so they show the views export the same families, label sets and values.
(a) and (b) were re-pinned when the HELP line of ``client.minions``
changed from "minions dispatched by the in-situ client" to what it
counts, "minions answered without a retryable failure"; with the old
line put back, both exports hash to their previous digests.

(b) is the only fleet, and was re-pinned once more when each node's views
gained a ``node`` label: device names repeat across nodes, so the views of
``node0/compstor0`` and ``node1/compstor0`` had landed on one label set
and added up, ratios too (``ftl.write_amplification`` read 2 with both
drives at 1).  Every node-labelled sample sums over nodes to the sample
the unlabelled export held; (a) and (c) build one node and do not move.
"""

import hashlib

from repro.cli import main
from repro.config import build_corpus, build_fault_plan, build_fleet, build_node, preset
from repro.faults import FaultInjector
from repro.obs import NULL_METRICS, View, to_prometheus
from repro.proto import Command
from tests.test_ftl import drive
from tests.test_obs_metrics import sample, total

METRICS_VERB_DIGEST = "a26fda73de299a99d991579862c000da04ec467d0a652ea619676e83a9f1f28f"
CHAOS_DRILL_DIGEST = "a0b8f4073794d409b6656ececd730d1d7e8aaded842af22f8dbe5702d82986b8"
GC_CHURN_DIGEST = "3ae8bf2b8453a1c9adcc95d98fee0edfa117f98da52b956cc3bdb036997c430f"


def counters_and_histograms(text: str) -> str:
    """The counter and histogram families of a Prometheus exposition."""
    kept: list[str] = []
    help_line = None
    keep = False
    for line in text.splitlines():
        if line.startswith("# HELP "):
            help_line = line
        elif line.startswith("# TYPE "):
            keep = line.rsplit(" ", 1)[1] in ("counter", "histogram")
            if keep:
                kept.extend([help_line, line] if help_line else [line])
            help_line = None
        elif keep:
            kept.append(line)
    return "\n".join(kept) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(counters_and_histograms(text).encode()).hexdigest()


def run_chaos_drill():
    config = preset("chaos-drill", ("obs.metrics=true",))
    fleet = build_fleet(config)
    sim = fleet.sim
    books = build_corpus(config)
    sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
    plan = build_fault_plan(config, fleet.device_ring(), base_time=sim.now)
    injector = FaultInjector.for_fleet(fleet, plan, metrics=fleet.metrics).start()

    def job():
        return (yield from fleet.run_job(
            books, lambda b: Command(command_line=f"grep xylophone {b.name}")
        ))

    report = sim.run(sim.process(job()))

    def poll():
        return (yield from fleet.health())

    sim.run(sim.process(poll()))
    return fleet, injector, report


def run_gc_churn(overrides=("obs.metrics=true",)):
    node = build_node(preset("smoke", overrides))
    ftl = node.compstors[0].ftl

    def flow():
        # 2048 page writes over a 1024-page device, each round twice the
        # 256-page write buffer: the collector must run
        for rnd in range(4):
            for lpn in range(512):
                yield from ftl.write(lpn, bytes([rnd]))
                if lpn % 64 == 0:
                    yield from ftl.read(lpn)  # still in the write buffer
        yield from ftl.flush()
        for lpn in range(0, 512, 8):
            assert (yield from ftl.read(lpn)) == bytes([3])

    drive(node.sim, flow())
    return node


def test_metrics_verb_export_is_pinned(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    prom = out.split("# == Prometheus exposition ==\n", 1)[1].split("# == JSON lines ==", 1)[0]
    assert digest(prom) == METRICS_VERB_DIGEST


def test_chaos_drill_export_is_pinned():
    fleet, injector, report = run_chaos_drill()
    assert report.retries and report.failovers and injector.applied
    assert digest(to_prometheus(fleet.metrics)) == CHAOS_DRILL_DIGEST


def test_gc_churn_export_is_pinned():
    node = run_gc_churn()
    ftl = node.compstors[0].ftl
    assert ftl.stats()["gc_collections"] > 0
    assert digest(to_prometheus(ftl.metrics)) == GC_CHURN_DIGEST


def test_null_metrics_holds_no_view_after_a_run_with_metrics_off():
    node = run_gc_churn(overrides=())
    assert node.compstors[0].ftl.metrics is NULL_METRICS
    assert not [view for view in NULL_METRICS.collect() if isinstance(view, View)]


def test_chaos_drill_views_equal_the_attributes_they_read():
    fleet, injector, _ = run_chaos_drill()
    metrics = fleet.metrics
    nodes = fleet.nodes
    ssds = [ssd for node in nodes for ssd in node.compstors]
    clients = [node.client for node in nodes]
    breakers = [b for client in clients for b in client._breakers.values()]
    counters = {
        "ftl.host_reads": sum(s.ftl.host_reads for s in ssds),
        "ftl.host_writes": sum(s.ftl.host_writes for s in ssds),
        "ftl.buffer_read_hits": sum(s.ftl.buffer_read_hits for s in ssds),
        "ftl.write_buffer.destages": sum(s.ftl.host_pages_programmed for s in ssds),
        "ftl.gc.collections": sum(s.ftl.gc.collections for s in ssds),
        "ftl.gc.pages_relocated": sum(s.ftl.gc.pages_relocated for s in ssds),
        "nvme.commands": sum(sum(s.controller.completions.values()) for s in ssds),
        "isps.minions": sum(s.agent.minions_served for s in ssds),
        "isps.queries": sum(sum(s.agent.queries.values()) for s in ssds),
        "isps.watchdog.kills": sum(s.agent.watchdog_kills for s in ssds),
        "client.minions": sum(sum(c.minions_returned.values()) for c in clients),
        "client.minion.retries": sum(c.retries for c in clients),
        "client.breaker.transitions": sum(len(b.transitions) for b in breakers),
        "client.breaker.fast_fails": sum(b.fast_fails for b in breakers),
        "cluster.failovers": fleet.failovers_total,
        "cluster.host_fallbacks": fleet.host_fallbacks_total,
        "cluster.minions.lost": fleet.lost_total,
        "faults.injected": sum(injector.injected.values()),
        "faults.recovered": sum(injector.recovered.values()),
    }
    for name, expected in counters.items():
        assert total(metrics[name]) == expected, name
    for name in ("client.minion.retries", "client.breaker.transitions",
                 "cluster.failovers", "faults.injected", "faults.recovered"):
        assert counters[name] > 0, name

    # node-scoped views carry their node: one sample per (node, device)
    for index, node in enumerate(nodes):
        where = {"node": f"node{index}"}
        for s in node.compstors:
            device = {**where, "device": f"{s.name}.ftl"}
            assert sample(metrics["ftl.host_reads"], 0, **device) == s.ftl.host_reads
            assert sample(metrics["ftl.free_blocks"], **device) == s.ftl.stats()["free_blocks"]
            assert sample(metrics["ftl.write_amplification"], **device) == (
                s.ftl.write_amplification()
            )
            assert sample(metrics["isps.minions.active"], **where, device=s.name) == (
                s.agent.active_minions
            )
        for component, joules in node.meter._active.items():
            assert sample(metrics["power.energy_joules"], **where, component=component) == joules
