"""Metric exporters: Prometheus text format and JSON lines.

Both render the same :class:`~repro.obs.metrics.MetricsRegistry` samples;
hierarchical dotted metric names become underscore-joined Prometheus
families (``ftl.gc.collections`` -> ``repro_ftl_gc_collections_total``)
while JSON lines keep the dotted names for downstream slicing.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import Histogram, MetricsRegistry, _HistogramState

__all__ = ["to_json_lines", "to_prometheus"]

PROM_PREFIX = "repro"


def _prom_name(name: str, suffix: str = "") -> str:
    flat = name.replace(".", "_").replace("-", "_")
    return f"{PROM_PREFIX}_{flat}{suffix}"


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, double-quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus exposition text (one ``# HELP``/``# TYPE`` per family)."""
    lines: list[str] = []
    for instrument in registry.collect():
        samples = instrument.samples()
        if not samples:
            continue
        suffix = "_total" if instrument.kind == "counter" else ""
        family = _prom_name(instrument.name, suffix)
        if instrument.help:
            lines.append(f"# HELP {family} {instrument.help}")
        lines.append(f"# TYPE {family} {instrument.kind}")
        if isinstance(instrument, Histogram):
            base = _prom_name(instrument.name)
            for labels, state, _ in samples:
                assert isinstance(state, _HistogramState)
                cumulative = 0
                for bound, count in zip(instrument.buckets, state.bucket_counts):
                    cumulative += count
                    lines.append(
                        f"{base}_bucket{_prom_labels(labels, {'le': _fmt(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{base}_bucket{_prom_labels(labels, {'le': '+Inf'})} {state.count}"
                )
                lines.append(f"{base}_sum{_prom_labels(labels)} {_fmt(state.sum)}")
                lines.append(f"{base}_count{_prom_labels(labels)} {state.count}")
        else:
            for labels, value, _ in samples:
                lines.append(f"{family}{_prom_labels(labels)} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json_lines(registry: MetricsRegistry) -> str:
    """One JSON object per sample: name, kind, labels, value(s), sim time."""
    lines: list[str] = []
    for instrument in registry.collect():
        for labels, value, updated in instrument.samples():
            record: dict[str, Any] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": labels,
                "time": updated,
            }
            if isinstance(value, _HistogramState):
                record["count"] = value.count
                record["sum"] = value.sum
                record["max"] = value.max
                record["min"] = value.min if value.count else 0.0
                record["buckets"] = {
                    _fmt(bound): count
                    for bound, count in zip(
                        list(instrument.buckets) + [float("inf")], value.bucket_counts
                    )
                    if count
                }
            else:
                record["value"] = value
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
