"""Shared-resource primitives: :class:`Resource`, :class:`PriorityResource`
and :class:`Store`.

These follow SimPy semantics: ``request()`` / ``get()`` / ``put()`` return
events that a process yields; releases are immediate.  ``request()`` objects
are context managers so the common pattern is::

    with bus.request() as req:
        yield req
        yield sim.timeout(transfer_time)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable

from repro.sim.core import Event, Simulator, _new

__all__ = ["PreemptionError", "PriorityResource", "Resource", "Store"]


class PreemptionError(Exception):
    """Raised inside a process whose resource slot was preempted."""


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Built only by :meth:`Resource.request`, without an ``__init__`` call.
    A request is granted at creation when a slot is free and nobody waits,
    else it joins the resource's wait queue.  Leaving the ``with`` block
    returns a granted slot (and grants the queue head) or withdraws a
    queued request.
    """

    __slots__ = ("resource", "priority", "_key")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Resource.release inlined for the common case, a granted slot: the
        # queue head is taken only when somebody waits.
        resource = self.resource
        users = resource.users
        if self in users:
            now = resource.sim.now
            resource._busy_integral += len(users) * (now - resource._last_change)
            resource._last_change = now
            users.remove(self)
            if resource._waiting:
                nxt = resource._dequeue()
                if nxt is not None:
                    resource._grant(nxt)
        else:
            resource._withdraw(self)


class Resource:
    """A server pool with ``capacity`` slots and a FIFO wait queue.

    Utilisation statistics are tracked so power/telemetry models can sample
    busy time without instrumenting every caller.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self._req_name = f"request({name})"
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] | list = deque()
        #: The container the waiting requests live in; its truthiness is
        #: "somebody waits" without a Python-level ``__bool__`` call.
        self._waiting: deque[Request] | list = self.queue
        # busy-time integral for utilisation reporting
        self._busy_integral = 0.0
        self._last_change = 0.0

    # -- accounting -------------------------------------------------------
    def utilization(self) -> float:
        """Mean fraction of capacity busy since t=0."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        integral = self._busy_integral + len(self.users) * (now - self._last_change)
        return integral / (now * self.capacity)

    # -- protocol ----------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        # The Request is built in this frame (flattened Event.__init__): a
        # request is made for every command, page and bus transaction.  Its
        # name is precomputed once per resource (_req_name).
        sim = self.sim
        req = _new(Request)
        req.sim = sim
        req.name = self._req_name
        req.callbacks = []
        req._ok = True
        req._defused = False
        req.resource = self
        req.priority = priority
        users = self.users
        if len(users) < self.capacity and not self._waiting:
            # _grant and Event.succeed inlined for the uncontended case, the
            # common one on every bus and queue slot.
            now = sim.now
            self._busy_integral += len(users) * (now - self._last_change)
            self._last_change = now
            users.append(req)
            req._value = self
            req._triggered = True
            sim._normal.append(req)
            sim._live += 1
        else:
            req._value = None
            req._triggered = False
            self._enqueue(req)
        return req

    def _enqueue(self, req: Request) -> None:
        self.queue.append(req)

    def _dequeue(self) -> Request | None:
        """The next request to grant; called only while somebody waits."""
        return self.queue.popleft()

    def _withdraw(self, req: Request) -> None:
        try:
            self.queue.remove(req)
        except ValueError:
            pass  # releasing twice, or a request that was never granted

    def _grant(self, req: Request) -> None:
        # The busy-time integral is advanced in place here, in request() and
        # in Request.__exit__: grant/release bracket every command, page and
        # bus transaction, so a helper call would cost measurable time.
        users = self.users
        now = self.sim.now
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        users.append(req)
        req.succeed(self)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by ``priority`` (lower first),
    FIFO within a priority level.

    Only a queued request draws its ``(priority, ticket)`` heap key: tickets
    are drawn in enqueue order, so FIFO order within a level holds, and an
    uncontended request costs the same as on a plain :class:`Resource`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "prio-resource"):
        super().__init__(sim, capacity, name)
        self._ticket = itertools.count()
        self._heap: list[tuple[tuple[int, int], Request]] = []
        # _withdraw mutates _heap in place, so neither alias dangles
        self.queue = self._waiting = self._heap

    def _enqueue(self, req: Request) -> None:
        req._key = (req.priority, next(self._ticket))
        heapq.heappush(self._heap, (req._key, req))

    def _dequeue(self) -> Request | None:
        while self._heap:
            _, req = heapq.heappop(self._heap)
            if not req._triggered:  # skip cancelled requests
                return req
        return None

    def _withdraw(self, req: Request) -> None:
        self._heap[:] = [(k, r) for (k, r) in self._heap if r is not req]
        heapq.heapify(self._heap)


class Store:
    """An unbounded-or-bounded FIFO buffer of Python objects.

    ``put(item)`` and ``get()`` return events.  ``get(filter=...)`` grabs the
    first item matching a predicate (used for message demultiplexing).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = "store"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.name = name
        self._put_name = f"put({name})"
        self._get_name = f"get({name})"
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[tuple[Event, Callable[[Any], bool] | None]] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, self._put_name)
        self._putters.append((ev, item))
        self._settle()
        return ev

    def get(self, filter: Callable[[Any], bool] | None = None) -> Event:
        ev = Event(self.sim, self._get_name)
        self._getters.append((ev, filter))
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            # move queued puts into the buffer while there is room
            while self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed()
                progress = True
            # satisfy getters from the buffer
            if self._getters and self.items:
                remaining: deque[tuple[Event, Callable[[Any], bool] | None]] = deque()
                while self._getters:
                    ev, pred = self._getters.popleft()
                    if pred is None:
                        # Fast path (the overwhelmingly common unfiltered
                        # get): identical outcome to the scan below finding
                        # index 0, without the enumerate machinery.
                        ev.succeed(self.items.popleft())
                        progress = True
                        if not self.items:
                            remaining.extend(self._getters)
                            self._getters.clear()
                        continue
                    found = None
                    for idx, item in enumerate(self.items):
                        if pred(item):
                            found = idx
                            break
                    if found is None:
                        remaining.append((ev, pred))
                    else:
                        item = self.items[found]
                        del self.items[found]
                        ev.succeed(item)
                        progress = True
                self._getters = remaining
