"""Core event loop: :class:`Simulator`, :class:`Event`, :class:`Process`.

Time is a float in **seconds**.  Sub-nanosecond resolution is plenty for the
device latencies modelled here (flash reads are ~60 us, PCIe transfers are
~us-scale); determinism comes from the stable ``(time, priority, seq)``
dispatch order, not from integer time.

The schedule has two parts.  Events due at the current time wait in two FIFO
lanes, ``urgent`` and ``normal``; events due strictly later wait in a heap of
``(time, priority, seq, daemon, event)`` tuples.  Dispatch drains the urgent
lane, then the normal lane, and only when both are empty advances the clock
to the heap top ``T``, moving every heap entry due at ``T`` into the lanes in
heap order.  That order is exactly ``(time, priority, seq)``: an entry due at
``T`` was scheduled before the clock reached ``T``, so its seq is below that
of anything scheduled at ``T``, and within a lane FIFO order is seq order.
Routing is by ``now + delay == now``, so a positive delay that rounds to the
current time keeps its FIFO place.

Every yield of every model process passes through :meth:`Process._resume`,
so the per-yield work is kept to the minimum: each process binds its resume
callback once, at creation, and registers that same object with the
``Initialize`` event, with every event it waits on, and removes it again on
an interrupt.  The callback is dropped when the process ends, so a finished
process holds no reference cycle and is freed by reference counting.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections import deque
from collections.abc import Callable, Generator, Iterable
from types import GeneratorType
from typing import Any

import numpy as np

# Pre-bound heap functions: the scheduler calls these once per future event,
# so skipping the module-attribute lookup is measurable at fleet scale.
_heappush = heapq.heappush
_heappop = heapq.heappop
# Allocates an event without running __init__: the hottest constructors
# (sim.timeout, sim.event, process start) fill the slots in their own frame.
_new = object.__new__

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Priority for ordinary events popped at the same timestamp.
NORMAL = 1
#: Priority used when resuming a process at the current time (runs first so
#: that chains of zero-delay events settle before time advances).
URGENT = 0


class SimulationError(Exception):
    """Raised for kernel misuse (double-trigger, run-without-work, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interrupting party supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: *pending* (created), *triggered*
    (scheduled with a value, waiting in the schedule) and *processed*
    (callbacks ran, ``callbacks`` is ``None``).  Waiting is expressed by a
    process ``yield``-ing the event.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_defused",
        "name",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # _schedule(self, 0.0, NORMAL) inlined: always due now.
        sim = self.sim
        sim._normal.append(self)
        sim._live += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every waiting process.  Failing an
        event nobody waits on raises at :meth:`Simulator.run` time so model
        bugs cannot vanish silently.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._normal.append(self)
        sim._live += 1
        return self

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    ``daemon=True`` marks a housekeeping timer (background scrubbers,
    telemetry pollers): like daemon threads, daemon events never keep the
    simulation alive — an unbounded :meth:`Simulator.run` returns once only
    daemon events remain.

    Built by :meth:`Simulator.timeout` without an ``__init__`` call.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal: kicks a newly created process at the current time.

    Built by :class:`Process` without an ``__init__`` call.
    """

    __slots__ = ()


class Process(Event):
    """A running coroutine.  Also an event: fires when the coroutine ends.

    The wrapped generator yields events; the process suspends until the
    yielded event triggers, then resumes with the event's value (or the
    event's exception raised at the yield point).
    """

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        # Flattened Event.__init__: processes are created per page in the
        # streaming-app readahead loop.  A plain generator is the common
        # case; anything else only needs the send/throw protocol.
        if type(generator) is GeneratorType:
            self.name = name or generator.__name__
        elif hasattr(generator, "send") and hasattr(generator, "throw"):
            self.name = name or getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"process() needs a generator, got {generator!r}")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self._generator = generator
        self._target: Event | None = None
        # The one bound resume callback of this process (see the module
        # docstring); _resume clears it when the process ends.
        resume = self._resume_cb = self._resume
        # The Initialize event, built in place and put straight on the
        # urgent lane: a new process starts at the current time, before
        # anything NORMAL due now.
        init = _new(Initialize)
        init.sim = sim
        init.name = "init"
        init.callbacks = [resume]
        init._value = None
        init._ok = True
        init._triggered = True
        init._defused = False
        sim._urgent.append(init)
        sim._live += 1

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via a failed event so ordering stays queue-driven.
        hit = Event(self.sim, name="interrupt")
        hit._defused = True
        hit.callbacks = [self._resume_interrupt]
        hit._triggered = True
        hit._ok = False
        hit._value = Interrupt(cause)
        self.sim._schedule(hit, delay=0.0, priority=URGENT)

    # -- resumption -----------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:  # terminated between scheduling and delivery
            return
        # Unhook from whatever we were waiting on; the wait stays pending
        # and the process decides whether to re-wait.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # The inner interpreter loop: every yield in every model process
        # passes through here.  The generator's methods are called, not
        # bound: almost every resumption runs the loop once, and a bound
        # method would be allocated for nothing.
        sim = self.sim
        generator = self._generator
        sim._active = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._triggered = True
                self._ok = True
                self._value = stop.value
                self._resume_cb = None
                sim._normal.append(self)
                sim._live += 1
                break
            except BaseException as exc:
                self._triggered = True
                self._ok = False
                self._value = exc
                self._resume_cb = None
                sim._normal.append(self)
                sim._live += 1
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(sim, name="bad-yield")
                event._triggered = True
                event._ok = False
                event._value = exc
                continue
            if next_event.sim is not sim:
                raise SimulationError("cannot wait on an event from another simulator")
            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: resume immediately with its outcome
                # (loop top sends the value or throws the exception).
                event = next_event
                continue
            callbacks.append(self._resume_cb)
            self._target = next_event
            break
        sim._active = None


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite waits."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str = "condition"):
        super().__init__(sim, name=name)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("all events must belong to one simulator")
        self._pending = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._check)
        if not self._triggered and self._pending == 0:
            # all were already processed but condition unmet → AnyOf with
            # zero matches cannot happen (any processed event matches);
            # AllOf handles it in _check.
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev._triggered and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _fail_from(self, event: Event) -> None:
        event._defused = True
        if not self._triggered:
            self.fail(event._value)


class AllOf(Condition):
    """Fires when every constituent event has fired (or one fails)."""

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = tuple(events)
        self._remaining = len(events)
        super().__init__(sim, events, name="all_of")

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            self._fail_from(event)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as any constituent event fires (or fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            self._fail_from(event)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop.

    Parameters
    ----------
    seed:
        Master seed for all model randomness.  Component code obtains
        independent deterministic streams via :meth:`rng`.
    """

    def __init__(self, seed: int = 0):
        #: Current simulation time in seconds.  A plain attribute, read on
        #: every timeout, grant and page operation; only this module's
        #: dispatch loops assign it.
        self.now = 0.0
        #: Events due now, in dispatch order: all URGENT ones, then NORMAL.
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        #: Events due strictly later than now.
        self._queue: list[tuple[float, int, int, bool, Event]] = []
        #: Daemon events waiting in a lane (heap entries carry the flag).
        self._lane_daemons: set[Event] = set()
        self._seq = itertools.count()
        self._active: Process | None = None
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self._live = 0  # scheduled non-daemon events
        #: Total events processed since construction (perf accounting).
        self.events_processed = 0

    # -- time -----------------------------------------------------------
    @property
    def active_process(self) -> Process | None:
        return self._active

    def rng(self, stream: str) -> np.random.Generator:
        """A named, deterministic random stream (stable across runs).

        The stream name is folded into the spawn key with :func:`zlib.crc32`
        — a *stable* hash.  Python's builtin ``hash(str)`` is salted per
        process (PYTHONHASHSEED), which would silently give every process
        its own random streams and break cross-run reproducibility.
        """
        gen = self._rngs.get(stream)
        if gen is None:
            root = np.random.SeedSequence(self._seed)
            child = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(zlib.crc32(stream.encode()) & 0x7FFFFFFF,),
            )
            gen = np.random.default_rng(child)
            self._rngs[stream] = gen
        return gen

    # -- event construction ----------------------------------------------
    def event(self, name: str = "") -> Event:
        # Event.__init__ inlined (one frame instead of type call + __init__).
        ev = _new(Event)
        ev.sim = self
        ev.name = name
        ev.callbacks = []
        ev._value = None
        ev._ok = True
        ev._triggered = False
        ev._defused = False
        return ev

    def timeout(self, delay: float, value: Any = None, daemon: bool = False) -> Timeout:
        # Built without __init__: every latency model yields one of these.
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        ev = _new(Timeout)
        ev.sim = self
        ev.name = "timeout"
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._defused = False
        if daemon:
            self._schedule(ev, delay, NORMAL, True)
            return ev
        now = self.now
        when = now + delay
        if when == now:
            self._normal.append(ev)
        else:
            _heappush(self._queue, (when, NORMAL, next(self._seq), False, ev))
        self._live += 1
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float, priority: int, daemon: bool = False
    ) -> None:
        """Schedule ``event`` at ``now + delay``.

        The general path; the hot constructors inline the cases they need.
        An event due now joins the tail of its priority's lane, so it keeps
        the FIFO place its (never materialised) seq would give it.
        """
        now = self.now
        when = now + delay
        if when == now:
            (self._urgent if priority == URGENT else self._normal).append(event)
            if daemon:
                self._lane_daemons.add(event)
        else:
            _heappush(self._queue, (when, priority, next(self._seq), daemon, event))
        if not daemon:
            self._live += 1

    def _advance(self) -> Event:
        """Move the clock to the heap top and return its event.

        Every other heap entry due at the same time moves to the lanes (the
        top entry is the first of them, so it is returned instead).  Callers
        check that the lanes are empty and the heap is not.
        """
        queue = self._queue
        when, _prio, _seq, daemon, event = _heappop(queue)
        self.now = when
        if daemon:
            self._lane_daemons.add(event)
        while queue and queue[0][0] == when:
            _when, prio, _seq, daemon, other = _heappop(queue)
            (self._urgent if prio == URGENT else self._normal).append(other)
            if daemon:
                self._lane_daemons.add(other)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._normal:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def live_events(self) -> int:
        """Scheduled non-daemon events (what keeps :meth:`run` going)."""
        return self._live

    def step(self) -> None:
        """Process exactly one event."""
        if self._urgent:
            event = self._urgent.popleft()
        elif self._normal:
            event = self._normal.popleft()
        elif not self._queue:
            raise SimulationError("step() on an empty schedule")
        elif self._queue[0][0] < self.now:
            raise SimulationError("event scheduled in the past")
        else:
            event = self._advance()
        daemons = self._lane_daemons
        if daemons and event in daemons:
            daemons.remove(event)
        else:
            self._live -= 1
        self.events_processed += 1
        # The swap-to-None is what marks "processed" for late waiters (see
        # Process._resume).  The run() loops inline this body.
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until live work drains, ``until`` seconds pass, or an event
        fires.

        Daemon events (background housekeeping timers) do not keep an
        unbounded run alive, but *are* processed inside a bounded
        ``run(until=<time>)`` window.  When ``until`` is an :class:`Event`,
        returns that event's value.
        """
        # The dispatch loops here and in _run_to are step() inlined, with
        # the callbacks run in place: take from the urgent lane, else the
        # normal lane, else advance the clock to the heap top.  The
        # past-event guard is unreachable here (only a negative delay handed
        # straight to _schedule could produce one); step() keeps it for
        # external single-step callers.
        urgent_pop = self._urgent.popleft
        normal_pop = self._normal.popleft
        urgent, normal, queue = self._urgent, self._normal, self._queue
        daemons = self._lane_daemons
        # Appended to when ``until``, an event, fires; empty otherwise.
        flag: list[bool] = []
        stop: Event | None = None
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                return stop._value if stop._ok else self._raise(stop)
            stop.callbacks.append(lambda ev: flag.append(True))
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
            if horizon != float("inf"):
                self._run_to(horizon)
                return None

        # Until the live schedule drains or ``stop`` fires: the loop every
        # model run spends its time in.
        while self._live > 0 and not flag:
            if urgent:
                event = urgent_pop()
            elif normal:
                event = normal_pop()
            else:
                # _advance() inlined
                when, _prio, _seq, daemon, event = _heappop(queue)
                self.now = when
                if daemon:
                    daemons.add(event)
                while queue and queue[0][0] == when:
                    _when, prio, _seq, daemon, other = _heappop(queue)
                    (urgent if prio == URGENT else normal).append(other)
                    if daemon:
                        daemons.add(other)
            if daemons and event in daemons:
                daemons.remove(event)
            else:
                self._live -= 1
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                raise event._value
        if stop is None:
            return None
        if not flag:
            raise SimulationError(f"live schedule drained before {stop!r} fired")
        return stop._value if stop._ok else self._raise(stop)

    def _run_to(self, horizon: float) -> None:
        """``run(until=horizon)``: every event due by ``horizon``, daemon
        events included, then the clock moves to ``horizon``."""
        urgent_pop = self._urgent.popleft
        normal_pop = self._normal.popleft
        urgent, normal, queue = self._urgent, self._normal, self._queue
        daemons = self._lane_daemons
        advance = self._advance
        while True:
            if urgent:
                event = urgent_pop()
            elif normal:
                event = normal_pop()
            elif queue and queue[0][0] <= horizon:
                event = advance()
            else:
                break
            if daemons and event in daemons:
                daemons.remove(event)
            else:
                self._live -= 1
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                raise event._value
        self.now = horizon

    @staticmethod
    def _raise(event: Event) -> Any:
        raise event._value
