"""Span tracing: propagation, tree reconstruction, Table III causal order."""

from repro.config import build_node, preset
from repro.obs import (
    adopt_records,
    build_span_trees,
    continue_trace,
    format_span_tree,
    start_trace,
)
from repro.sim import Simulator, Tracer
from repro.sim.trace import TraceRecord


# -- construction / reconstruction --------------------------------------------

def test_span_tree_reconstruction():
    sim = Simulator()
    tracer = Tracer()
    root = start_trace(tracer, sim, "job", "client")
    child = root.child("transport", "nvme")
    child.event("hop", queue=0)
    child.end()
    root.end()

    trees = build_span_trees(tracer)
    assert len(trees) == 1
    tree = next(iter(trees.values()))
    assert tree.name == "job"
    assert [c.name for c in tree.children] == ["transport"]
    assert tree.children[0].events[0][1] == "hop"
    assert tree.children[0].duration == 0.0


def test_continue_trace_joins_propagated_context():
    sim = Simulator()
    tracer = Tracer()
    root = start_trace(tracer, sim, "life", "client")
    ctx = root.context  # what travels inside the minion
    remote = continue_trace(tracer, sim, "agent", "device", ctx)
    remote.end()
    root.end()
    tree = next(iter(build_span_trees(tracer).values()))
    assert tree.name == "life"
    assert tree.children[0].name == "agent"
    assert tree.children[0].parent_id == ctx.span_id


def test_span_end_is_idempotent():
    sim = Simulator()
    tracer = Tracer()
    span = start_trace(tracer, sim, "s", "c")
    span.end()
    span.end()
    assert len([r for r in tracer.records if r.kind == "span.end"]) == 1


def test_span_ids_are_deterministic_per_tracer():
    def run():
        sim = Simulator(seed=7)
        tracer = Tracer()
        root = start_trace(tracer, sim, "a", "c")
        root.child("b").end()
        root.end()
        return [(r.kind, dict(r.detail)) for r in tracer.records]

    assert run() == run()


def test_orphan_spans_promote_to_roots():
    # parent record evicted (bounded tracer) -> child still reconstructs
    records = [
        TraceRecord(1.0, "c", "span.start",
                    detail={"trace": 1, "span": 5, "parent": 2, "name": "orphan"}),
        TraceRecord(2.0, "c", "span.end", detail={"trace": 1, "span": 5}),
    ]
    trees = build_span_trees(records)
    assert trees[1].name == "orphan"


def test_adopt_records_attaches_to_deepest_window():
    sim = Simulator()
    tracer = Tracer()
    root = start_trace(tracer, sim, "outer", "client")
    inner = root.child("inner", "dev0.agent")

    def flow():
        yield sim.timeout(1.0)
        tracer.emit(sim.now, "dev0.flash", "flash.read", addr=3)
        yield sim.timeout(1.0)
        inner.end()
        yield sim.timeout(1.0)
        root.end()

    sim.run(sim.process(flow()))
    tree = next(iter(build_span_trees(tracer).values()))
    adopted = adopt_records(tree, tracer, kinds=("flash.read",), component_prefix="dev0")
    assert adopted == 1
    # landed on the *deepest* containing span, not the root
    assert tree.events == []
    assert tree.children[0].events[0][1] == "flash.read"


# -- end-to-end: the Table III minion lifetime ---------------------------------

# Step 5 (tracking) runs concurrently with the driver's flash traffic and
# takes its first sample at spawn time, so it precedes the first flash.read
# completion in the causal sequence.
TABLE3_STEPS = (
    "client.minion.sent",     # 1. client configures + sends the minion
    "minion.received",        # 2. agent receives it
    "minion.spawned",         # 2. and spawns the in-storage process
    "minion.tracked",         # 5. agent tracks in-situ status (periodic)
    "flash.read",             # 3-4. driver reads flash for the scan
    "minion.responded",       # 6. response populated and sent back
    "client.minion.returned", # 6. client observes completion
)


def minion_lifetime_tree():
    tracer = Tracer()
    node = build_node(preset("smoke"), tracer=tracer)
    sim = node.sim
    fs = node.compstors[0].fs

    def stage():
        yield from fs.write_file("f.txt", b"fox\n" * 500)
        # land the file on NAND so the scan produces real flash traffic
        yield from fs.device.flush()

    sim.run(sim.process(stage()))

    def flow():
        yield from node.client.run("compstor0", "grep fox f.txt")

    sim.run(sim.process(flow()))
    trees = build_span_trees(tracer)
    roots = [t for t in trees.values() if t.name == "minion.lifetime"]
    assert len(roots) == 1
    root = roots[0]
    adopt_records(root, tracer, kinds=("flash.read",), component_prefix="compstor0.flash")
    return root


def test_minion_lifetime_spans_all_six_table3_steps_in_causal_order():
    root = minion_lifetime_tree()
    # every event in the tree, sorted by (time, emission order)
    names = [name for _, _, name in sorted(
        (t, seq, name) for node in root.walk() for t, name, _, seq in node.events
    )]
    # every step is present...
    for step in TABLE3_STEPS:
        assert step in names, f"missing Table III step {step}"
    # ...and in causal order (first occurrence of each)
    first = [names.index(step) for step in TABLE3_STEPS]
    assert first == sorted(first)


def test_minion_lifetime_tree_shape():
    root = minion_lifetime_tree()
    # client -> nvme transport -> agent execution -> process execution
    nodes = {node.name: node for node in reversed(list(root.walk()))}
    assert "nvme.isc" in nodes
    agent = nodes["agent.execute"]
    assert agent.component == "compstor0.agent"
    execp = nodes["exec.process"]
    # flash traffic was adopted into the execution window
    assert any(event[1] == "flash.read" for event in execp.events)
    # spans nest in time
    assert root.start <= agent.start and agent.end <= root.end


def test_format_span_tree_renders_events_and_nesting():
    root = minion_lifetime_tree()
    text = format_span_tree(root)
    assert "minion.lifetime (client)" in text
    assert "agent.execute" in text
    assert "* " in text  # events inlined
    # nesting via indentation
    lines = text.splitlines()
    assert any(line.startswith("    ") for line in lines)


def test_no_span_records_without_tracer():
    # default-off: a node built without a tracer emits no span records at all
    node = build_node(preset("smoke"))
    sim = node.sim
    sim.run(sim.process(node.compstors[0].fs.write_file("f.txt", b"fox\n")))

    def flow():
        yield from node.client.run("compstor0", "grep fox f.txt")

    sim.run(sim.process(flow()))  # nothing raises; no tracer anywhere
