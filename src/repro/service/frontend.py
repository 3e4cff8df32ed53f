"""The service pipeline: admission -> schedule -> dispatch -> SLO.

:class:`ServiceFrontend` glues the pieces together inside one simulation:

1. **Admission.**  Each request is classed (stable tenant hash), charged
   against its per-tenant token bucket (shed ``rate_limited``), and checked
   against the bounded queue (shed ``queue_full``).  With the overload
   defenses engaged, retries are charged against the fleet-wide
   :class:`~repro.service.overload.RetryBudget` (shed ``retry_budget``)
   and low-priority classes shed early as the queue fills
   (:class:`~repro.service.overload.Brownout`, shed ``brownout``).
2. **Scheduling.**  Admitted requests enter the weighted fair queue under
   their priority class.
3. **Dispatch.**  Worker processes pull from the WFQ and drive
   :meth:`StorageFleet.serve_one` — retries, circuit breakers, and replica
   failover all engaged.  With defenses on, a
   :class:`~repro.service.overload.CoDelController` drops requests whose
   queue sojourn proves a standing queue (served-stale work is the fuel of
   metastable failure), and an
   :class:`~repro.service.overload.AimdController` grows/shrinks the
   number of active dispatch slots against measured queue wait.
4. **SLO.**  Every outcome lands in the :class:`SloTracker`; ``run()``
   returns the frozen :class:`SloReport` scorecard — including goodput
   windows and multi-window burn-rate alert verdicts for closed-loop runs.

The traffic source is either the open-loop :class:`TrafficGenerator`
stream (``traffic`` config) or the closed-loop session population
(:class:`~repro.service.traffic.ClosedLoopDriver`, ``closed_loop``
config), where shed work feeds back as retries.  Both go through one
admission function, :meth:`ServiceFrontend.offer`, and one dispatch loop.
With an objstore supplied and ``objstore.write_fraction`` set, a stable
share of tenants issue PUTs through the dedup store instead of reads, in
either loop.

Determinism: open-loop arrivals are materialised up front from the traffic
seed, closed-loop sessions draw from per-session named streams, admission
is pure bookkeeping, the WFQ breaks ties by push order, and the
simulator's event order is stable — so the scorecard is a pure function of
the scenario config.  Every overload feature is gated on its config
section, so a run without ``overload``/``closed_loop`` sections schedules
no event of theirs (the pinned traffic goldens hold that).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generator, Sequence

import zlib

from repro.cluster.fleet import StorageFleet
from repro.config.schema import (
    ClosedLoopConfig,
    ObjstoreConfig,
    OverloadConfig,
    ServiceConfig,
    TrafficConfig,
)
from repro.obs.health import burn_rate_alerts
from repro.proto.entities import Command
from repro.service.overload import (
    AimdController,
    Brownout,
    CoDelController,
    RetryBudget,
)
from repro.service.scheduler import WeightedFairQueue
from repro.service.slo import SloReport, SloTracker
from repro.service.tokens import TenantBuckets
from repro.service.traffic import ClosedLoopDriver, TrafficGenerator, assign_class
from repro.workloads import BookFile

__all__ = ["QueuedRequest", "ServiceFrontend"]

#: Arrivals (open loop) or queued offers (closed loop) between token-bucket
#: eviction sweeps (state-bound housekeeping).
EVICT_EVERY = 64


def _default_command(book: BookFile, tenant: int) -> Command:
    return Command(command_line=f"grep xylophone {book.name}")


class QueuedRequest:
    """One admitted request in flight through the queue.

    ``done`` (closed-loop only) fires when the request resolves; ``status``
    is then ``completed``/``dropped``/``lost``.  ``abandoned`` is set by
    the client when it stops waiting — the request still occupies the
    queue and may still be served, but that completion is wasted work.
    """

    __slots__ = ("tenant", "class_name", "admitted_at", "done", "abandoned", "status")

    def __init__(self, tenant: int, class_name: str, admitted_at: float, done=None):
        self.tenant = tenant
        self.class_name = class_name
        self.admitted_at = admitted_at
        self.done = done
        self.abandoned = False
        self.status = "queued"


class ServiceFrontend:
    """One multi-tenant serving session over a staged fleet."""

    def __init__(
        self,
        fleet: StorageFleet,
        service: ServiceConfig,
        traffic: TrafficConfig | None,
        books: Sequence[BookFile],
        command_for: Callable[[BookFile, int], Command] = _default_command,
        closed_loop: ClosedLoopConfig | None = None,
        overload: OverloadConfig | None = None,
        objstore=None,
        objstore_config: ObjstoreConfig | None = None,
    ):
        if not books:
            raise ValueError("serving needs at least one staged book")
        if (traffic is None) == (closed_loop is None):
            raise ValueError("need exactly one of traffic (open loop) or "
                             "closed_loop (sessions)")
        self.fleet = fleet
        self.sim = fleet.sim
        self.service = service
        self.traffic = traffic
        self.closed_loop = closed_loop
        self.overload = overload
        self.books = list(books)
        self.command_for = command_for
        engaged = closed_loop is not None or overload is not None
        self.tracker = SloTracker(
            service.classes,
            fleet.metrics if fleet.metrics.enabled else None,
            overload=engaged,
        )
        self.buckets = TenantBuckets()
        self._classes = {c.name: c for c in service.classes}
        self._queue = WeightedFairQueue({c.name: c.weight for c in service.classes})
        self._arrivals_done = False
        self._signal = None
        self.driver = (
            ClosedLoopDriver(self.sim, closed_loop)
            if closed_loop is not None
            else None
        )
        self._offers = 0
        self._wait_sum = 0.0
        self._wait_count = 0
        # Objstore write mix: engaged only when a store is supplied AND the
        # config asks for write traffic; every other run never touches it.
        self._objstore = objstore
        self._write_fraction = (
            objstore_config.write_fraction
            if objstore is not None and objstore_config is not None
            else 0.0
        )
        if self._objstore is not None and self._write_fraction > 0.0:
            from repro.objstore.workload import generate_objects

            self._write_payloads = generate_objects(objstore_config.spec())
        else:
            self._write_payloads = []
        if overload is not None:
            self.retry_budget = RetryBudget(
                overload.retry_budget, overload.retry_budget_burst
            )
            self._codel = CoDelController(
                overload.codel_target_ms / 1e3, overload.codel_interval_ms / 1e3
            )
            # lowest weight sheds first; name breaks ties deterministically
            order = tuple(c.name for c in sorted(
                service.classes, key=lambda c: (c.weight, c.name)
            ))
            self._brownout = Brownout(order, overload.brownout_start)
            self._aimd = AimdController(
                low=overload.aimd_low_ms / 1e3,
                high=overload.aimd_high_ms / 1e3,
                decrease=overload.aimd_decrease,
                floor=overload.min_concurrency,
                ceiling=overload.max_concurrency,
                initial=service.concurrency,
            )
            self._worker_count = overload.max_concurrency
            self._allowed = self._aimd.allowed
            self._gated = True
        else:
            self.retry_budget = None
            self._codel = None
            self._brownout = None
            self._aimd = None
            self._worker_count = service.concurrency
            self._allowed = service.concurrency
            self._gated = False
        self.tracker.on_concurrency(self._allowed)

    # -- wiring ---------------------------------------------------------------

    def _wait_signal(self):
        """The shared work-available event (recreated after each trigger)."""
        if self._signal is None or self._signal.triggered:
            self._signal = self.sim.event("service.kick")
        return self._signal

    def _kick(self) -> None:
        if self._signal is not None and not self._signal.triggered:
            self._signal.succeed()

    # -- admission -------------------------------------------------------------

    def offer(self, tenant: int, retry: bool = False) -> QueuedRequest | None:
        """Admission for both traffic sources: returns the queued request or
        ``None`` when shed.

        Retries (closed loop only) are charged against the fleet-wide retry
        budget *first* — under overload, keeping retry pressure off the
        queue matters more than any per-tenant fairness decision.  A
        closed-loop request carries a ``done`` event its session waits on,
        and every ``EVICT_EVERY`` queued offers sweep the token buckets; an
        open-loop request has no waiter, and :meth:`_arrivals` sweeps by
        arrival count instead.
        """
        cls = self._classes[assign_class(tenant, self.service.classes)]
        self.tracker.on_arrival(cls.name)
        now = self.sim.now
        if retry:
            self.tracker.on_retry(cls.name)
            if self.retry_budget is not None and not self.retry_budget.try_spend():
                self.tracker.on_shed(cls.name, "retry_budget", at=now)
                return None
        if not self.buckets.allow(tenant, cls.rate, cls.burst, now):
            self.tracker.on_shed(cls.name, "rate_limited", at=now)
            return None
        if self._brownout is not None and self._brownout.sheds(
            cls.name, len(self._queue), self.service.queue_depth
        ):
            self.tracker.on_shed(cls.name, "brownout", at=now)
            return None
        if len(self._queue) >= self.service.queue_depth:
            self.tracker.on_shed(cls.name, "queue_full", at=now)
            return None
        if not retry and self.retry_budget is not None:
            self.retry_budget.earn()
        closed = self.driver is not None
        request = QueuedRequest(tenant, cls.name, now,
                                done=self.sim.event("service.done") if closed else None)
        self._queue.push(cls.name, request)
        self.tracker.on_queue_depth(len(self._queue))
        if closed:
            self._offers += 1
            if self._offers % EVICT_EVERY == 0:
                self.buckets.evict_restorable(now)
        self._kick()
        return request

    def abandon(self, request: QueuedRequest) -> None:
        """The client stopped waiting; the request stays queued (stale)."""
        request.abandoned = True
        self.tracker.on_abandon(request.class_name, at=self.sim.now)

    def _arrivals(self) -> Generator:
        start = self.sim.now
        stream = TrafficGenerator(self.traffic).arrivals()
        for index, arrival in enumerate(stream):
            target = start + arrival.time
            if target > self.sim.now:
                yield self.sim.timeout(target - self.sim.now)
            self.offer(arrival.tenant)
            if (index + 1) % EVICT_EVERY == 0:
                self.buckets.evict_restorable(self.sim.now)
        self._arrivals_done = True
        self._kick()

    def _sessions(self) -> Generator:
        yield from self.driver.run(self)
        self._arrivals_done = True
        self._kick()

    # -- dispatch --------------------------------------------------------------

    def _finish(self, request: QueuedRequest, status: str) -> None:
        request.status = status
        if request.done is not None:
            request.done.succeed()

    def _drained_kick(self) -> None:
        """Wake index-gated workers parked above the AIMD allowance so
        they can observe completion (gated runs only — an ungated worker
        never parks after the source finishes)."""
        if self._gated and self._arrivals_done and not self._queue:
            self._kick()

    def _is_write(self, tenant: int) -> bool:
        """Deterministic write-mix membership: the same stable-hash idiom as
        :func:`assign_class`, salted so write tenants are independent of
        priority class."""
        if self._write_fraction <= 0.0:
            return False
        point = (zlib.crc32(f"write:{tenant}".encode()) & 0xFFFFFFFF) / 2**32
        return point < self._write_fraction

    def _serve_write(self, request: QueuedRequest, wait: float) -> Generator:
        """One objstore PUT through the dedup store (the write request
        class).  A committed PUT completes with path ``"objstore"``; a PUT
        with no surviving replica target counts lost, like a read with no
        surviving copy."""
        from repro.objstore.store import ObjectStoreError

        key = f"t{request.tenant}"
        _, payload = self._write_payloads[request.tenant % len(self._write_payloads)]
        try:
            yield from self._objstore.put(key, payload)
        except ObjectStoreError:
            self.tracker.on_lost(request.class_name, at=self.sim.now)
            self._finish(request, "lost")
            return False
        self.tracker.on_complete(
            request.class_name,
            request.tenant,
            self.sim.now - request.admitted_at,
            wait,
            "objstore",
            stale=request.abandoned,
            at=self.sim.now,
        )
        self._finish(request, "completed")
        return True

    def _worker(self, index: int) -> Generator:
        while True:
            if self._gated and index >= self._allowed:
                if self._arrivals_done and not self._queue:
                    return
                yield self._wait_signal()
                continue
            if self._queue:
                class_name, request = self._queue.pop()
                self.tracker.on_queue_depth(len(self._queue))
                now = self.sim.now
                wait = now - request.admitted_at
                self._wait_sum += wait
                self._wait_count += 1
                if self._codel is not None and self._codel.on_dequeue(now, wait):
                    self.tracker.on_drop(class_name, at=now)
                    self._finish(request, "dropped")
                    self._drained_kick()
                    continue
                if self._is_write(request.tenant):
                    yield from self._serve_write(request, wait)
                    self._drained_kick()
                    continue
                book = self.books[request.tenant % len(self.books)]
                response, path = yield from self.fleet.serve_one(
                    book, self.command_for(book, request.tenant)
                )
                if response is None:
                    self.tracker.on_lost(class_name, at=self.sim.now)
                    self._finish(request, "lost")
                else:
                    self.tracker.on_complete(
                        class_name,
                        request.tenant,
                        self.sim.now - request.admitted_at,
                        wait,
                        path,
                        stale=request.abandoned,
                        at=self.sim.now,
                    )
                    self._finish(request, "completed")
                self._drained_kick()
            elif self._arrivals_done:
                return
            else:
                yield self._wait_signal()

    def _aimd_loop(self) -> Generator:
        """The concurrency governor: one AIMD update per control interval,
        fed the mean queue wait measured at dispatch over that interval
        (a starved interval under a standing queue reads as a high wait).
        Daemon timeouts: the governor never keeps the run alive."""
        overload = self.overload
        interval = overload.aimd_interval_ms / 1e3
        high = overload.aimd_high_ms / 1e3
        while not (self._arrivals_done and not self._queue):
            yield self.sim.timeout(interval, daemon=True)
            if self._wait_count:
                sample = self._wait_sum / self._wait_count
            elif self._queue:
                sample = 2.0 * high  # dispatch starved under a standing queue
            else:
                sample = 0.0
            self._wait_sum = 0.0
            self._wait_count = 0
            before = self._allowed
            self._allowed = self._aimd.update(sample)
            if self._allowed != before:
                self.tracker.on_concurrency(self._allowed)
            if self._allowed > before:
                self._kick()

    # -- the run ---------------------------------------------------------------

    def _goodput_windows(self, start: float, end: float) -> dict:
        window_s = self.closed_loop.goodput_window_ms / 1e3
        count = max(1, -int(-(end - start) // window_s))  # ceil
        windows = [0] * count
        for t in self.tracker.good_times:
            windows[min(count - 1, int((t - start) / window_s))] += 1
        return {"window_ms": self.closed_loop.goodput_window_ms, "windows": windows}

    def _attach_overload(self, report: SloReport, start: float) -> SloReport:
        """Attach the frontend-owned overload/closed-loop sections."""
        extras: dict = {}
        if self.driver is not None:
            counters = self.driver.counters()
            counters["abandoned"] = self.tracker.abandoned.total()
            counters["stale"] = self.tracker.stale.total()
            extras["closed"] = counters
            extras["goodput"] = self._goodput_windows(start, self.sim.now)
        if self.overload is not None:
            budget = self.retry_budget
            extras["retry_budget"] = {
                "requested": budget.requested,
                "admitted": budget.admitted,
                "rejected": budget.rejected,
            }
            extras["aimd"] = {
                "final": self._aimd.allowed,
                "peak": self._aimd.peak,
                "increases": self._aimd.increases,
                "decreases": self._aimd.decreases,
            }
            extras["burn"] = burn_rate_alerts(
                self.tracker.events,
                self.overload.slo_objective,
                self.overload.burn_windows,
            )
        return replace(report, **extras)

    def run(self) -> Generator:
        """Serve the whole configured traffic source; returns the
        :class:`SloReport` scorecard."""
        sim = self.sim
        start = sim.now
        procs = [
            sim.process(self._worker(i), name=f"service.worker{i}")
            for i in range(self._worker_count)
        ]
        if self.driver is not None:
            procs.append(sim.process(self._sessions(), name="service.sessions"))
            pattern = "closed-loop"
        else:
            procs.append(sim.process(self._arrivals(), name="service.arrivals"))
            pattern = self.traffic.pattern
        if self._aimd is not None:
            sim.process(self._aimd_loop(), name="service.aimd")
        yield sim.all_of(procs)
        report = self.tracker.report(
            pattern, peak_buckets=self.buckets.peak_buckets
        )
        if self.closed_loop is not None or self.overload is not None:
            report = self._attach_overload(report, start)
        return report
