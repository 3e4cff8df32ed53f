"""Structured event tracing.

Components emit :class:`TraceRecord` rows into a :class:`Tracer`; experiments
filter them to validate protocol behaviour (e.g. the Table III minion
lifetime) and to build timelines without coupling model code to reporters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    component:
        Dotted origin, e.g. ``"compstor0.isps.agent"``.
    kind:
        Machine-readable event name, e.g. ``"minion.received"``.
    detail:
        Free-form payload for assertions and debugging.
    """

    time: float
    component: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """An append-only trace log with cheap filtering.

    Tracing is opt-in per component: models hold an optional tracer and call
    :meth:`emit` unconditionally — a disabled tracer is a no-op, so hot paths
    pay one attribute test.

    With ``capacity`` set the log is a **ring buffer**: once full, each new
    record evicts the oldest one (long-running monitoring keeps the most
    recent window, the useful half for operators).
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.enabled = enabled
        self.records: deque[TraceRecord] = deque(maxlen=capacity)

    def emit(self, time: float, component: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        # a full ring buffer's deque evicts the oldest record on append
        self.records.append(TraceRecord(time, component, kind, detail))

    def filter(
        self,
        kind: str | None = None,
        component: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Records matching all given criteria (prefix match on component)."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if component is not None and not rec.component.startswith(component):
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        self.records.clear()


#: A shared disabled tracer for components created without one.
NULL_TRACER = Tracer(enabled=False)
