"""SLO accounting: latency tails, fairness, shed/violation counts.

The tracker is the service frontend's single sink: every arrival,
admission decision, completion, and loss lands here, and :meth:`report`
freezes the run into a :class:`SloReport` — the JSON-able scorecard the
CLI prints, the determinism tests digest, and the CI golden pins.

The tracker keeps its counts as plain tallies (a ``Counter`` per family,
keyed by the labels it exports, and ints for queue depth and
concurrency), which :meth:`SloTracker.report` reads directly.  It
registers them as counter and gauge views on the fleet's metrics
registry, so traffic runs export through :mod:`repro.obs.export` like
every other subsystem; with metrics off that registers nothing.  The
latency histograms are pushed, to the fleet registry when metrics are
enabled and otherwise to a private enabled registry, because the
scorecard's quantiles are not optional.

Latency histograms use the exact-reservoir mode
(:class:`repro.obs.metrics.Histogram` ``exact_limit``): p999 at a few
hundred completions is meaningless under bucket interpolation, and exact
quantiles are also what makes the scorecard byte-stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.config.schema import PriorityClassConfig
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

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
        views = registry if registry is not None else NULL_METRICS
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
        # The tallies, keyed by the labels they export under.
        self.requests: Counter[str] = Counter()  # cls
        self.shed: Counter[tuple[str, str]] = Counter()  # cls, reason
        self.completed: Counter[tuple[str, str]] = Counter()  # cls, path
        self.lost: Counter[str] = Counter()  # cls
        self.violations: Counter[str] = Counter()  # cls
        self.dropped: Counter[tuple[str, str]] = Counter()  # cls, reason
        self.stale: Counter[str] = Counter()  # cls
        self.abandoned: Counter[str] = Counter()  # cls
        self.retries: Counter[str] = Counter()  # cls
        self.queue_depth = 0
        self.concurrency = 0
        views.counter_view("service.requests", "arrivals offered to admission",
                           lambda: self.requests, keys=("cls",))
        views.counter_view("service.shed", "arrivals shed at admission",
                           lambda: self.shed, keys=("cls", "reason"))
        views.counter_view("service.completed", "requests completed by the fleet",
                           lambda: self.completed, keys=("cls", "path"))
        views.counter_view("service.lost", "admitted requests the fleet could not serve",
                           lambda: self.lost, keys=("cls",))
        views.counter_view("service.slo.violations", "completions over their class objective",
                           lambda: self.violations, keys=("cls",))
        views.gauge_view("service.queue.depth", "admission queue depth",
                         lambda: self.queue_depth)
        self._tenant_completions: dict[int, int] = {}
        self.peak_queue = 0
        # Overload/closed-loop families and the (time, good) event series
        # burn-rate alerting consumes — registered only when the defenses
        # are engaged, so legacy runs export exactly what they always did.
        if overload:
            views.counter_view("service.dropped", "admitted requests dropped at dispatch",
                               lambda: self.dropped, keys=("cls", "reason"))
            views.counter_view("service.stale",
                               "completions delivered after client abandonment",
                               lambda: self.stale, keys=("cls",))
            views.counter_view("service.abandoned", "requests whose client stopped waiting",
                               lambda: self.abandoned, keys=("cls",))
            views.counter_view("service.retries", "retry attempts offered to admission",
                               lambda: self.retries, keys=("cls",))
            views.gauge_view("service.concurrency", "AIMD-governed dispatch slots",
                             lambda: self.concurrency)
        self.events: list[tuple[float, bool]] = []  # (time, good)
        self.good_times: list[float] = []  # fresh-completion times

    # -- event sinks ---------------------------------------------------------

    def on_arrival(self, class_name: str) -> None:
        self.requests[class_name] += 1

    def on_retry(self, class_name: str) -> None:
        self.retries[class_name] += 1

    def on_shed(self, class_name: str, reason: str, at: float | None = None) -> None:
        self.shed[class_name, reason] += 1
        if self.overload and at is not None:
            self.events.append((at, False))

    def on_queue_depth(self, depth: int) -> None:
        if depth > self.peak_queue:
            self.peak_queue = depth
        self.queue_depth = depth

    def on_concurrency(self, allowed: int) -> None:
        self.concurrency = allowed

    def on_drop(self, class_name: str, at: float | None = None) -> None:
        """An admitted request dropped at dispatch (CoDel sojourn control)."""
        self.dropped[class_name, "codel"] += 1
        if at is not None:
            self.events.append((at, False))

    def on_abandon(self, class_name: str, at: float | None = None) -> None:
        """The client stopped waiting; the request may still be served
        (stale) — that later completion is wasted work, not a good event."""
        self.abandoned[class_name] += 1
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
        self.completed[class_name, path] += 1
        self._tenant_completions[tenant] = self._tenant_completions.get(tenant, 0) + 1
        if latency_s > self._slo_s[class_name]:
            self.violations[class_name] += 1
        if stale:
            self.stale[class_name] += 1
        elif self.overload and at is not None:
            self.events.append((at, True))
            self.good_times.append(at)

    def on_lost(self, class_name: str, at: float | None = None) -> None:
        self.lost[class_name] += 1
        if self.overload and at is not None:
            self.events.append((at, False))

    # -- reporting -----------------------------------------------------------

    def report(self, pattern: str, peak_buckets: int = 0) -> SloReport:
        reasons = SHED_REASONS + (OVERLOAD_SHED_REASONS if self.overload else ())
        shed: dict[str, int] = {reason: 0 for reason in reasons}
        for (_cls, reason), count in sorted(self.shed.items()):
            shed[reason] = shed.get(reason, 0) + count
        completed: Counter[str] = Counter()
        for (cls, _path), count in self.completed.items():
            completed[cls] += count
        per_class: dict[str, dict[str, float]] = {}
        for cls in self.classes:
            name = cls.name
            per_class[name] = {
                "requests": self.requests[name],
                "completed": completed[name],
                "violations": self.violations[name],
                "p99_ms": self._latency.percentile(0.99, cls=name) * 1e3,
            }
        requests = self.requests.total()
        return SloReport(
            pattern=pattern,
            requests=requests,
            admitted=requests - self.shed.total(),
            shed=shed,
            completed=completed.total(),
            lost=self.lost.total(),
            violations=self.violations.total(),
            p50_ms=self._latency.aggregate_percentile(0.50) * 1e3,
            p99_ms=self._latency.aggregate_percentile(0.99) * 1e3,
            p999_ms=self._latency.aggregate_percentile(0.999) * 1e3,
            queue_wait_p99_ms=self._wait.aggregate_percentile(0.99) * 1e3,
            jain=jain_index(list(self._tenant_completions.values())),
            tenants_seen=len(self._tenant_completions),
            peak_queue=self.peak_queue,
            peak_buckets=peak_buckets,
            per_class=per_class,
            dropped=self.dropped.total() if self.overload else None,
        )
