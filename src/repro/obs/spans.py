"""Span-based tracing layered on :class:`repro.sim.trace.Tracer`.

The seed tracer records disconnected events; this module links them into
**causal span trees**.  A :class:`Span` emits ``span.start`` / ``span.event``
/ ``span.end`` trace records carrying a :class:`SpanContext` (trace id, span
id, parent id), so a minion's life — client -> NVMe -> agent -> exec ->
flash driver -> response, the paper's Table III — reconstructs as one tree
instead of a flat log.

Identifiers are allocated from a per-:class:`Tracer` sequence, so two runs
with fresh tracers produce byte-identical traces (the kernel's determinism
guarantee extends to spans).

Records that components emit without span plumbing (``flash.read``,
``minion.tracked``, ...) can be *adopted* into a finished tree by time
window + component prefix (:func:`adopt_records`): exact for one in-flight
minion, best-effort under concurrency — which is precisely the Table III
replay use case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Span",
    "SpanContext",
    "SpanNode",
    "adopt_records",
    "build_span_trees",
    "format_span_tree",
    "start_trace",
    "continue_trace",
]


@dataclass(frozen=True, slots=True)
class SpanContext:
    """Propagatable identity of a span (what travels inside a minion)."""

    trace_id: int
    span_id: int
    parent_id: int | None = None


def _next_id(tracer: Tracer) -> int:
    # Per-tracer sequence => deterministic ids for a fresh (seed, model) run.
    seq = getattr(tracer, "_span_seq", 0) + 1
    tracer._span_seq = seq
    return seq


class Span:
    """A live span: emits start/end/event records into the tracer."""

    __slots__ = ("tracer", "sim", "name", "component", "context", "started_at", "ended_at")

    def __init__(
        self,
        tracer: Tracer,
        sim,
        name: str,
        component: str,
        context: SpanContext,
    ):
        self.tracer = tracer
        self.sim = sim
        self.name = name
        self.component = component
        self.context = context
        self.started_at = sim.now
        self.ended_at: float | None = None
        tracer.emit(
            sim.now, component, "span.start",
            trace=context.trace_id, span=context.span_id,
            parent=context.parent_id, name=name,
        )

    def child(self, name: str, component: str | None = None) -> "Span":
        ctx = SpanContext(
            trace_id=self.context.trace_id,
            span_id=_next_id(self.tracer),
            parent_id=self.context.span_id,
        )
        return Span(self.tracer, self.sim, name, component or self.component, ctx)

    def event(self, name: str, **detail: Any) -> None:
        self.tracer.emit(
            self.sim.now, self.component, "span.event",
            trace=self.context.trace_id, span=self.context.span_id,
            name=name, **detail,
        )

    def end(self, **detail: Any) -> None:
        if self.ended_at is not None:
            return
        self.ended_at = self.sim.now
        self.tracer.emit(
            self.sim.now, self.component, "span.end",
            trace=self.context.trace_id, span=self.context.span_id,
            name=self.name, duration=self.ended_at - self.started_at, **detail,
        )


def start_trace(tracer: Tracer, sim, name: str, component: str) -> Span:
    """Open a root span (a new trace)."""
    trace_id = _next_id(tracer)
    ctx = SpanContext(trace_id=trace_id, span_id=_next_id(tracer), parent_id=None)
    return Span(tracer, sim, name, component, ctx)


def continue_trace(
    tracer: Tracer, sim, name: str, component: str, parent: SpanContext
) -> Span:
    """Open a child span under a propagated :class:`SpanContext`."""
    ctx = SpanContext(
        trace_id=parent.trace_id, span_id=_next_id(tracer), parent_id=parent.span_id
    )
    return Span(tracer, sim, name, component, ctx)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One reconstructed span: tree node + its in-window events.

    Events are ``(time, name, detail, seq)`` where ``seq`` is the record's
    position in the source trace — the causal tiebreak for events that share
    a simulation timestamp (discrete-event models produce many such ties).
    """

    name: str
    component: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    events: list[tuple[float, str, dict, int]] = field(default_factory=list)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_trees(source: Tracer | Iterable[TraceRecord]) -> dict[int, SpanNode]:
    """``trace_id -> root SpanNode`` from span.* records.

    Orphan spans (parent never seen — e.g. evicted from a bounded tracer)
    are promoted to roots of their trace; the first-started root wins the
    trace's slot and later roots attach under it as children so no data is
    silently lost.
    """
    records = source.records if isinstance(source, Tracer) else source
    nodes: dict[int, SpanNode] = {}
    trace_of: dict[int, int] = {}
    for seq, rec in enumerate(records):
        if rec.kind == "span.start":
            d = rec.detail
            nodes[d["span"]] = SpanNode(
                name=d["name"], component=rec.component,
                span_id=d["span"], parent_id=d.get("parent"), start=rec.time,
            )
            trace_of[d["span"]] = d["trace"]
        elif rec.kind == "span.end":
            node = nodes.get(rec.detail["span"])
            if node is not None:
                node.end = rec.time
        elif rec.kind == "span.event":
            node = nodes.get(rec.detail["span"])
            if node is not None:
                detail = {
                    k: v for k, v in rec.detail.items()
                    if k not in ("trace", "span", "name")
                }
                node.events.append((rec.time, rec.detail["name"], detail, seq))
    roots: dict[int, SpanNode] = {}
    for span_id, node in nodes.items():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
            continue
        trace_id = trace_of[span_id]
        if trace_id in roots:
            roots[trace_id].children.append(node)
        else:
            roots[trace_id] = node
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.start, child.span_id))
    return roots


def adopt_records(
    root: SpanNode,
    source: Tracer | Iterable[TraceRecord],
    kinds: tuple[str, ...],
    component_prefix: str = "",
) -> int:
    """Fold non-span trace records into a finished tree as events.

    Each matching record becomes an event on the **deepest** span whose
    ``[start, end]`` window contains its timestamp.  Returns the number of
    records adopted.  Exact when one minion is in flight (the Table III
    replay); under concurrency, same-device records are attributed to
    whichever span window contains them.
    """
    records = source.records if isinstance(source, Tracer) else source
    adopted = 0
    for seq, rec in enumerate(records):
        if rec.kind not in kinds:
            continue
        if component_prefix and not rec.component.startswith(component_prefix):
            continue
        best: SpanNode | None = None
        best_depth = -1
        stack: list[tuple[SpanNode, int]] = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            end = node.end if node.end is not None else float("inf")
            if node.start <= rec.time <= end:
                if depth > best_depth:
                    best, best_depth = node, depth
                stack.extend((child, depth + 1) for child in node.children)
        if best is not None:
            # seq is the record's index in the same source trace, so adopted
            # events interleave correctly with native span events
            best.events.append((rec.time, rec.kind, dict(rec.detail), seq))
            adopted += 1
    for node in root.walk():
        node.events.sort(key=lambda item: (item[0], item[3]))
    return adopted


def format_span_tree(root: SpanNode, time_unit: float = 1e3, unit: str = "ms") -> str:
    """ASCII rendering of a span tree, events inlined in time order."""
    lines: list[str] = []

    def emit(node: SpanNode, indent: int) -> None:
        pad = "  " * indent
        duration = node.duration
        span_when = f"[{node.start * time_unit:.3f} {unit}"
        span_when += f" +{duration * time_unit:.3f} {unit}]" if duration is not None else " ...]"
        lines.append(f"{pad}{node.name} ({node.component}) {span_when}")
        # interleave events and children by (time, emission order)
        items: list[tuple[float, int, int, object]] = []
        for event in node.events:
            items.append((event[0], 0, event[3], event))
        for child in node.children:
            items.append((child.start, 1, 0, child))
        for _, tag, _, item in sorted(items, key=lambda x: (x[0], x[1], x[2])):
            if tag == 0:
                t, name, detail, _ = item  # type: ignore[misc]
                extras = "".join(
                    f" {k}={v}" for k, v in sorted(detail.items()) if k != "duration"
                )
                lines.append(f"{pad}  * {t * time_unit:.3f} {unit} {name}{extras}")
            else:
                emit(item, indent + 1)  # type: ignore[arg-type]

    emit(root, 0)
    return "\n".join(lines)
