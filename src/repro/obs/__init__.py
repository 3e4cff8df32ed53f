"""Observability subsystem: metrics, spans, fleet health, exporters.

The operational layer the paper's STATUS story implies ("ARM cores
utilization, or temperature of the cores ... used for load balancing"),
grown to fleet scale:

- :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram`` instruments
  and pull ``View`` families over components' own counts, in a
  :class:`MetricsRegistry`, sampled against simulation time;
- :mod:`repro.obs.spans` — causal span trees over :class:`repro.sim.Tracer`
  (a minion's life as one tree, per Table III);
- :mod:`repro.obs.health` — :class:`HealthAggregator` folding per-device
  telemetry + SMART into a :class:`FleetHealth` rollup;
- :mod:`repro.obs.export` — Prometheus-text and JSON-lines exporters
  (``python -m repro metrics`` dumps both).

Everything is default-off: with :data:`NULL_METRICS` no view is registered
and each histogram hook is one attribute test (enforced by
``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.export import to_json_lines, to_prometheus
from repro.obs.health import FleetHealth, HealthAggregator
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
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
    "Counter",
    "FleetHealth",
    "Gauge",
    "HealthAggregator",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "Span",
    "SpanContext",
    "SpanNode",
    "adopt_records",
    "build_span_trees",
    "continue_trace",
    "format_span_tree",
    "start_trace",
    "to_json_lines",
    "to_prometheus",
    "View",
]
