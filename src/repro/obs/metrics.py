"""Fleet-wide metrics instruments.

A :class:`MetricsRegistry` holds :class:`View` families (counters and
gauges) and :class:`Histogram` instruments keyed by hierarchical dotted
names (e.g. ``"ftl.gc.collections"``) plus label dicts
(``device="compstor0"``), the observability substrate the paper's
operational story needs ("ARM cores utilization, or temperature of the
cores ... used for load balancing").

Design constraints, in order:

1. **One counter per fact; the default path pays nothing.**  Every
   counter and gauge is a count a component keeps in its own attributes
   (the ``SloTracker``'s tallies included), exported as a :class:`View`
   family (``counter_view``/``gauge_view``) that is read only when the
   registry is collected; a disabled registry such as
   :data:`NULL_METRICS` registers none.  There is no pushed counter or
   gauge.  Histograms, which need every observation, are the only push
   instruments, behind one ``metrics.enabled`` test.  The overhead guard
   bench (``benchmarks/test_obs_overhead.py``) and the call budgets in
   ``tests/test_default_off_calls.py`` and ``tests/test_serve_calls.py``
   enforce this.
2. **Simulation-time aware.**  Samples are stamped with the registry's
   clock (wire ``clock=lambda: sim.now``).
3. **No new dependencies** — exporters (:mod:`repro.obs.export`) turn the
   same samples into Prometheus text or JSON lines.
"""

from __future__ import annotations

import bisect
import copy
from functools import partialmethod
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "View",
]

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bounds, tuned for simulated device latencies (seconds):
#: sub-microsecond buffer hits up to multi-second minion jobs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _exact_quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile over raw samples (numpy's default
    ``linear`` method): rank ``q * (n - 1)`` in the sorted sample."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * fraction


class View:
    """A counter or gauge family read from components when it is sampled.

    Each source is ``(labels, keys, read)``. Without ``keys``, ``read()``
    returns the one sample under ``labels``; with ``keys``, a mapping from
    key values (a tuple for several keys) to samples, each key adding its
    labels. Sources that land on one label set add up. A counter view
    exports a label set only while it is non-zero, a gauge view every one.
    Samples are floats stamped with the registry clock when read.
    """

    def __init__(self, registry: "MetricsRegistry", name: str, help: str, kind: str):
        self.registry = registry
        self.name = name
        self.help = help
        self.kind = kind
        self._sources: list[tuple[dict[str, Any], tuple[str, ...], Callable[[], Any]]] = []

    @property
    def _values(self) -> dict[LabelKey, float]:
        totals: dict[LabelKey, float] = {}
        for labels, keys, read in self._sources:
            for key, value in (read().items() if keys else [((), read())]):
                label_key = _label_key(
                    {**labels, **dict(zip(keys, (key,) if len(keys) == 1 else key))}
                )
                totals[label_key] = totals.get(label_key, 0.0) + value
        if self.kind == "counter":
            return {key: value for key, value in totals.items() if value}
        return totals

    def samples(self) -> list[tuple[dict[str, str], Any, float]]:
        now = self.registry.now()
        values = self._values
        return [(dict(key), values[key], now) for key in sorted(values)]


class _HistogramState:
    """Per-label-set histogram accumulator."""

    __slots__ = ("bucket_counts", "count", "sum", "max", "min", "samples")

    def __init__(self, n_buckets: int, keep_samples: bool = False):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 = overflow (+Inf)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.min = float("inf")  # finite after the first observation
        # Exact-mode reservoir: raw observations while n <= exact_limit,
        # permanently dropped (-> bucket interpolation) once exceeded.
        self.samples: list[float] | None = [] if keep_samples else None


class Histogram:
    """Bucketed distribution with percentile estimation.

    Buckets are upper bounds (Prometheus ``le`` convention); one implicit
    ``+Inf`` overflow bucket is always present.

    ``exact_limit`` (default 0 = off) keeps a bounded reservoir of raw
    observations per label set: while a series holds at most that many
    samples, :meth:`percentile` is *exact* (sorted-sample interpolation,
    which tail quantiles like p999 need at small n), and the reservoir is
    permanently dropped — falling back to bucket interpolation — the
    moment a series exceeds it, so memory stays bounded.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        exact_limit: int = 0,
    ):
        self.registry = registry
        self.name = name
        self.help = help
        self._values: dict[LabelKey, _HistogramState] = {}
        self._updated: dict[LabelKey, float] = {}
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if exact_limit < 0:
            raise ValueError("exact_limit must be >= 0")
        self.buckets = bounds
        self.exact_limit = exact_limit

    def observe(self, value: float, **labels: Any) -> None:
        if not self.registry.enabled:
            return
        key = _label_key(labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistogramState(
                len(self.buckets), keep_samples=self.exact_limit > 0
            )
        index = bisect.bisect_left(self.buckets, value)
        state.bucket_counts[index] += 1
        state.count += 1
        state.sum += value
        if value > state.max:
            state.max = value
        if value < state.min:
            state.min = value
        if state.samples is not None:
            state.samples.append(value)
            if len(state.samples) > self.exact_limit:
                state.samples = None  # degrade permanently; memory stays bounded
        self._updated[key] = self.registry.now()

    def samples(self) -> list[tuple[dict[str, str], _HistogramState, float]]:
        """``(labels, state, last_observation_time)`` per label set, sorted."""
        return [
            (dict(key), self._values[key], self._updated.get(key, 0.0))
            for key in sorted(self._values)
        ]

    # -- statistics ---------------------------------------------------------
    def _state(self, **labels: Any) -> _HistogramState | None:
        return self._values.get(_label_key(labels))

    def percentile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) by linear
        interpolation inside the containing bucket.

        Every bucket's interpolation range is clamped to the observed
        ``[min, max]``: ``q=0`` reports the true minimum (not the containing
        bucket's lower bound), and a distribution living entirely in the
        ``+Inf`` overflow bucket interpolates between its min and max
        instead of collapsing every quantile to the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        state = self._state(**labels)
        if not state or not state.count:
            return 0.0
        if state.samples is not None and state.samples:
            return _exact_quantile(state.samples, q)
        rank = q * state.count
        cumulative = 0
        for index, bucket_count in enumerate(state.bucket_counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.buckets):  # overflow bucket
                    upper = state.max
                    lower = self.buckets[-1]
                else:
                    upper = self.buckets[index]
                    lower = self.buckets[index - 1] if index > 0 else 0.0
                if state.min > lower:
                    lower = state.min
                if state.max < upper:
                    upper = max(state.max, lower)
                fraction = 1.0 - (cumulative - rank) / bucket_count
                return lower + (upper - lower) * fraction
        return state.max

    def aggregate_count(self) -> int:
        """Observations over every label set."""
        return sum(state.count for state in self._values.values())

    def aggregate_percentile(self, q: float) -> float:
        """Percentile over the union of every label set's observations.

        Stays exact when every series still holds its reservoir (and the
        union fits the limit); otherwise merges buckets and interpolates.
        """
        if not self._values:
            return 0.0
        merged = _HistogramState(len(self.buckets))
        pooled: list[float] | None = [] if self.exact_limit > 0 else None
        for state in self._values.values():
            merged.count += state.count
            merged.sum += state.sum
            merged.max = max(merged.max, state.max)
            merged.min = min(merged.min, state.min)
            for i, c in enumerate(state.bucket_counts):
                merged.bucket_counts[i] += c
            if pooled is not None:
                if state.samples is None:
                    pooled = None
                else:
                    pooled.extend(state.samples)
        if pooled is not None and len(pooled) <= self.exact_limit:
            merged.samples = pooled
        probe = Histogram(self.registry, self.name, self.help, self.buckets)
        probe._values[()] = merged
        return probe.percentile(q)



class MetricsRegistry:
    """Owns every instrument; the unit of export and of enable/disable.

    Parameters
    ----------
    enabled:
        When False every instrument is a no-op (the shared
        :data:`NULL_METRICS` default).
    clock:
        ``() -> float`` returning the current simulation time; wire
        ``clock=lambda: sim.now``.  Defaults to a constant 0.0 so a registry
        can exist before its simulator.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
    ):
        self.enabled = enabled
        self._clock = clock
        self._instruments: dict[str, Histogram | View] = {}
        self._scope: dict[str, Any] = {}

    def scoped(self, **labels: Any) -> "MetricsRegistry":
        """This registry, adding ``labels`` to every view registered through
        the result (a fleet's ``node`` label: device names repeat per node)."""
        child = copy.copy(self)
        child._scope = {**self._scope, **labels}
        return child

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    @property
    def clock(self) -> Callable[[], float] | None:
        return self._clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- instrument factories ------------------------------------------------
    def _view(
        self, kind: str, name: str, help: str, read: Callable[[], Any],
        keys: tuple[str, ...] = (), **labels: Any,
    ) -> None:
        """Export ``read()``, a count or current value a component keeps
        itself, as a :class:`View` source. A disabled registry registers
        nothing, so it never holds a reference to the component."""
        if not self.enabled:
            return
        view = self._instruments.get(name)
        if view is None:
            view = self._instruments[name] = View(self, name, help, kind)
        elif not isinstance(view, View) or view.kind != kind:
            raise ValueError(f"instrument {name!r} already registered as {view.kind}")
        view._sources.append(({**self._scope, **labels}, tuple(keys), read))

    counter_view = partialmethod(_view, "counter")
    gauge_view = partialmethod(_view, "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        exact_limit: int = 0,
    ) -> Histogram:
        existing = self._instruments.get(name)
        if existing is None:
            existing = self._instruments[name] = Histogram(
                self, name, help, buckets=buckets, exact_limit=exact_limit
            )
        elif not isinstance(existing, Histogram):
            raise ValueError(f"instrument {name!r} already registered as {existing.kind}")
        return existing

    # -- introspection -------------------------------------------------------
    def collect(self) -> Iterator[Histogram | View]:
        """Instruments in name order (stable export)."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str) -> Histogram | View:
        return self._instruments[name]

    def names(self, prefix: str = "") -> list[str]:
        """Registered instrument names under a hierarchical prefix."""
        return [n for n in sorted(self._instruments) if n.startswith(prefix)]


#: Shared disabled registry for components constructed without metrics.
NULL_METRICS = MetricsRegistry(enabled=False)
