"""Observability subsystem: metrics, spans, fleet health, exporters.

The operational layer the paper's STATUS story implies ("ARM cores
utilization, or temperature of the cores ... used for load balancing"),
grown to fleet scale:

- :mod:`repro.obs.metrics` — pull ``View`` families (every counter and
  gauge, read from components' own counts at export) and pushed
  ``Histogram`` instruments, in a :class:`MetricsRegistry`, sampled
  against simulation time;
- :mod:`repro.obs.spans` — causal span trees over :class:`repro.sim.Tracer`
  (a minion's life as one tree, per Table III);
- :mod:`repro.obs.health` — :func:`fleet_health`, one pure rollup of a
  poll's per-device telemetry + SMART pages into a :class:`FleetHealth`;
- :mod:`repro.obs.export` — Prometheus-text and JSON-lines exporters
  (``python -m repro metrics`` dumps both).

Everything is default-off: with :data:`NULL_METRICS` no view is registered
and each histogram hook is one attribute test (enforced as call counts by
``tests/test_default_off_calls.py`` and as wall clock by
``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.export import to_json_lines, to_prometheus
from repro.obs.health import FleetHealth, fleet_health
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    View,
)
from repro.obs.spans import (
    Span,
    SpanContext,
    SpanNode,
    adopt_records,
    build_span_trees,
    continue_trace,
    format_span_tree,
    start_trace,
)

__all__ = [
    "FleetHealth",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "Span",
    "SpanContext",
    "SpanNode",
    "adopt_records",
    "build_span_trees",
    "continue_trace",
    "fleet_health",
    "format_span_tree",
    "start_trace",
    "to_json_lines",
    "to_prometheus",
    "View",
]
