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
So was (b), except for the last digits of the ``power.energy_joules``
samples whose component names repeat across the two nodes: pushes added
each charge into one float in time order, while the view adds each
node's meter total, and float addition depends on order.
"""

import hashlib

from repro.cli import main
from repro.config import build_corpus, build_fault_plan, build_fleet, build_node, preset
from repro.faults import FaultInjector
from repro.obs import NULL_METRICS, View, to_prometheus
from repro.proto import Command
from tests.test_ftl import drive

METRICS_VERB_DIGEST = "435e89b5e942f8079e38d52dfb5ccc7850505d037a16f0cb97523906d2046334"
CHAOS_DRILL_DIGEST = "fa78e23146996daa589b055394b51483f61dd1c9905dc4bbecff21509e0191e9"
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
        assert metrics[name].total() == expected, name
    for name in ("client.minion.retries", "client.breaker.transitions",
                 "cluster.failovers", "faults.injected", "faults.recovered"):
        assert counters[name] > 0, name

    for name in {s.name for s in ssds}:
        same = [s for s in ssds if s.name == name]  # one per node
        device = {"device": f"{name}.ftl"}
        assert metrics["ftl.host_reads"].get(0, **device) == sum(s.ftl.host_reads for s in same)
        assert metrics["ftl.free_blocks"].value(**device) == sum(
            s.ftl.stats()["free_blocks"] for s in same
        )
        assert metrics["isps.minions.active"].value(device=name) == sum(
            s.agent.active_minions for s in same
        )
    for component in {c for node in nodes for c in node.meter._active}:
        expected = 0.0
        for node in nodes:
            expected += node.meter.active_energy(component)
        assert metrics["power.energy_joules"].get(0.0, component=component) == expected
