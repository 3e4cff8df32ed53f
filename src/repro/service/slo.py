"""SLO accounting: latency tails, fairness, shed/violation counts.

The tracker is the service frontend's single sink: every arrival,
admission decision, completion, and loss lands here, and :meth:`report`
freezes the run into a :class:`SloReport` — the JSON-able scorecard the
CLI prints, the determinism tests digest, and the CI golden pins.

Instruments are registered on the fleet's metrics registry when metrics
are enabled (so traffic runs export through :mod:`repro.obs.export` like
every other subsystem); with metrics off the tracker brings its own
private enabled registry, because the scorecard itself is not optional.

Latency histograms use the exact-reservoir mode
(:class:`repro.obs.metrics.Histogram` ``exact_limit``): p999 at a few
hundred completions is meaningless under bucket interpolation, and exact
quantiles are also what makes the scorecard byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config.schema import PriorityClassConfig
from repro.obs.metrics import MetricsRegistry

__all__ = ["OVERLOAD_SHED_REASONS", "SHED_REASONS", "SloReport", "SloTracker", "jain_index"]

#: Reservoir bound for exact tail quantiles; beyond this the histograms
#: degrade to bucket interpolation (drills stay far below it).
EXACT_LIMIT = 8192

#: Shed reasons the baseline admission pipeline can report.
SHED_REASONS = ("queue_full", "rate_limited")

#: Additional shed reasons once the overload defenses are engaged.
OVERLOAD_SHED_REASONS = ("brownout", "retry_budget")


def jain_index(counts: Sequence[float]) -> float:
    """Jain's fairness index over per-tenant allocations: 1.0 is perfectly
    fair, 1/n is maximally unfair.  Empty input reports 1.0 (vacuous)."""
    values = [float(c) for c in counts]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True, slots=True)
class SloReport:
    """One traffic run, frozen: the scorecard payload."""

    pattern: str
    requests: int
    admitted: int
    shed: dict[str, int]
    completed: int
    lost: int
    violations: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    queue_wait_p99_ms: float
    jain: float
    tenants_seen: int
    peak_queue: int
    peak_buckets: int
    per_class: dict[str, dict[str, float]]
    # Overload / closed-loop sections.  ``None`` (the default for every
    # open-loop run without defenses) keeps them out of the payload, so
    # pre-existing scorecards stay byte-identical.
    dropped: int | None = None  # CoDel drops at dispatch (post-admission)
    closed: dict | None = None  # session counters: issued/retried/...
    retry_budget: dict | None = None  # requested/admitted/rejected
    aimd: dict | None = None  # concurrency governor trajectory
    goodput: dict | None = None  # windowed fresh-completion counts
    burn: tuple | None = None  # multi-window burn-rate alert evaluations
    objstore: dict | None = None  # dedup-store byte accounting (write mix)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def to_payload(self) -> dict:
        """Plain JSON-encodable dict (canonical-JSON friendly: no NaN,
        floats rounded so the scorecard digest is byte-stable)."""
        payload: dict = {
            "pattern": self.pattern,
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed.items())),
            "completed": self.completed,
            "lost": self.lost,
            "violations": self.violations,
            "p50_ms": round(self.p50_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
            "p999_ms": round(self.p999_ms, 6),
            "queue_wait_p99_ms": round(self.queue_wait_p99_ms, 6),
            "jain": round(self.jain, 6),
            "tenants_seen": self.tenants_seen,
            "peak_queue": self.peak_queue,
            "peak_buckets": self.peak_buckets,
            "per_class": {
                name: {k: (round(v, 6) if isinstance(v, float) else v)
                       for k, v in sorted(stats.items())}
                for name, stats in sorted(self.per_class.items())
            },
        }
        if self.dropped is not None:
            payload["dropped"] = self.dropped
        if self.closed is not None:
            payload["closed"] = dict(sorted(self.closed.items()))
        if self.retry_budget is not None:
            payload["retry_budget"] = dict(sorted(self.retry_budget.items()))
        if self.aimd is not None:
            payload["aimd"] = dict(sorted(self.aimd.items()))
        if self.goodput is not None:
            payload["goodput"] = {
                "window_ms": round(self.goodput["window_ms"], 6),
                "windows": list(self.goodput["windows"]),
            }
        if self.objstore is not None:
            payload["objstore"] = dict(sorted(self.objstore.items()))
        if self.burn is not None:
            payload["burn"] = [
                {k: (round(v, 6) if isinstance(v, float) else v)
                 for k, v in sorted(alert.items())}
                for alert in self.burn
            ]
        return payload


class SloTracker:
    """Mutable accounting behind :class:`SloReport`."""

    def __init__(
        self,
        classes: Sequence[PriorityClassConfig],
        registry: MetricsRegistry | None = None,
        overload: bool = False,
    ):
        if registry is None or not registry.enabled:
            registry = MetricsRegistry(enabled=True)
        self.registry = registry
        self.overload = overload
        self.classes = tuple(classes)
        self._slo_s = {c.name: c.slo_ms / 1e3 for c in classes}
        self._latency = registry.histogram(
            "service.request.latency_seconds",
            "end-to-end latency (arrival to completion)",
            exact_limit=EXACT_LIMIT,
        )
        self._wait = registry.histogram(
            "service.queue.wait_seconds",
            "admission-queue wait (arrival to dispatch)",
            exact_limit=EXACT_LIMIT,
        )
        self._requests = registry.counter(
            "service.requests", "arrivals offered to admission"
        )
        self._shed = registry.counter("service.shed", "arrivals shed at admission")
        self._completed = registry.counter(
            "service.completed", "requests completed by the fleet"
        )
        self._lost = registry.counter(
            "service.lost", "admitted requests the fleet could not serve"
        )
        self._violations = registry.counter(
            "service.slo.violations", "completions over their class objective"
        )
        self._depth = registry.gauge("service.queue.depth", "admission queue depth")
        self._tenant_completions: dict[int, int] = {}
        self.peak_queue = 0
        # Overload/closed-loop instruments and the (time, good) event
        # series burn-rate alerting consumes — registered only when the
        # defenses are engaged, so legacy runs export exactly what they
        # always did.
        if overload:
            self._dropped = registry.counter(
                "service.dropped", "admitted requests dropped at dispatch"
            )
            self._stale = registry.counter(
                "service.stale", "completions delivered after client abandonment"
            )
            self._abandoned = registry.counter(
                "service.abandoned", "requests whose client stopped waiting"
            )
            self._retries = registry.counter(
                "service.retries", "retry attempts offered to admission"
            )
            self._concurrency = registry.gauge(
                "service.concurrency", "AIMD-governed dispatch slots"
            )
        else:
            self._dropped = self._stale = self._abandoned = None
            self._retries = self._concurrency = None
        self.events: list[tuple[float, bool]] = []  # (time, good)
        self.good_times: list[float] = []  # fresh-completion times

    # -- event sinks ---------------------------------------------------------

    def on_arrival(self, class_name: str) -> None:
        self._requests.inc(cls=class_name)

    def on_retry(self, class_name: str) -> None:
        if self._retries is not None:
            self._retries.inc(cls=class_name)

    def on_shed(self, class_name: str, reason: str, at: float | None = None) -> None:
        self._shed.inc(cls=class_name, reason=reason)
        if self.overload and at is not None:
            self.events.append((at, False))

    def on_queue_depth(self, depth: int) -> None:
        if depth > self.peak_queue:
            self.peak_queue = depth
        self._depth.set(depth)

    def on_concurrency(self, allowed: int) -> None:
        if self._concurrency is not None:
            self._concurrency.set(allowed)

    def on_drop(self, class_name: str, at: float | None = None) -> None:
        """An admitted request dropped at dispatch (CoDel sojourn control)."""
        self._dropped.inc(cls=class_name, reason="codel")
        if at is not None:
            self.events.append((at, False))

    def on_abandon(self, class_name: str, at: float | None = None) -> None:
        """The client stopped waiting; the request may still be served
        (stale) — that later completion is wasted work, not a good event."""
        self._abandoned.inc(cls=class_name)
        if at is not None:
            self.events.append((at, False))

    def on_complete(
        self,
        class_name: str,
        tenant: int,
        latency_s: float,
        wait_s: float,
        path: str,
        stale: bool = False,
        at: float | None = None,
    ) -> None:
        self._latency.observe(latency_s, cls=class_name)
        self._wait.observe(wait_s, cls=class_name)
        self._completed.inc(cls=class_name, path=path)
        self._tenant_completions[tenant] = self._tenant_completions.get(tenant, 0) + 1
        if latency_s > self._slo_s[class_name]:
            self._violations.inc(cls=class_name)
        if stale:
            self._stale.inc(cls=class_name)
        elif self.overload and at is not None:
            self.events.append((at, True))
            self.good_times.append(at)

    def on_lost(self, class_name: str, at: float | None = None) -> None:
        self._lost.inc(cls=class_name)
        if self.overload and at is not None:
            self.events.append((at, False))

    # -- reporting -----------------------------------------------------------

    def _class_count(self, counter, class_name: str, **extra: str) -> int:
        total = 0.0
        for labels, value, _t in counter.samples():
            if labels.get("cls") != class_name:
                continue
            if any(labels.get(k) != v for k, v in extra.items()):
                continue
            total += value
        return int(total)

    @property
    def dropped_total(self) -> int:
        return int(self._dropped.total()) if self._dropped is not None else 0

    @property
    def stale_total(self) -> int:
        return int(self._stale.total()) if self._stale is not None else 0

    @property
    def abandoned_total(self) -> int:
        return int(self._abandoned.total()) if self._abandoned is not None else 0

    def report(self, pattern: str, peak_buckets: int = 0) -> SloReport:
        reasons = SHED_REASONS + (OVERLOAD_SHED_REASONS if self.overload else ())
        shed: dict[str, int] = {reason: 0 for reason in reasons}
        for labels, value, _t in self._shed.samples():
            reason = labels.get("reason", "unknown")
            shed[reason] = shed.get(reason, 0) + int(value)
        per_class: dict[str, dict[str, float]] = {}
        for cls in self.classes:
            name = cls.name
            per_class[name] = {
                "requests": self._class_count(self._requests, name),
                "completed": self._class_count(self._completed, name),
                "violations": self._class_count(self._violations, name),
                "p99_ms": self._latency.percentile(0.99, cls=name) * 1e3,
            }
        return SloReport(
            pattern=pattern,
            requests=int(self._requests.total()),
            admitted=int(self._requests.total() - self._shed.total()),
            shed=shed,
            completed=int(self._completed.total()),
            lost=int(self._lost.total()),
            violations=int(self._violations.total()),
            p50_ms=self._latency.aggregate_percentile(0.50) * 1e3,
            p99_ms=self._latency.aggregate_percentile(0.99) * 1e3,
            p999_ms=self._latency.aggregate_percentile(0.999) * 1e3,
            queue_wait_p99_ms=self._wait.aggregate_percentile(0.99) * 1e3,
            jain=jain_index(list(self._tenant_completions.values())),
            tenants_seen=len(self._tenant_completions),
            peak_queue=self.peak_queue,
            peak_buckets=peak_buckets,
            per_class=per_class,
            dropped=self.dropped_total if self.overload else None,
        )
