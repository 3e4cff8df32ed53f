"""Core event loop: :class:`Simulator`, :class:`Event`, :class:`Process`.

Time is a float in **seconds**.  Sub-nanosecond resolution is plenty for the
device latencies modelled here (flash reads are ~60 us, PCIe transfers are
~us-scale); determinism comes from the stable ``(time, priority, seq)`` heap
ordering, not from integer time.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections.abc import Callable, Generator, Iterable
from typing import Any

import numpy as np

# Pre-bound heap functions: the scheduler calls these once per event, so
# skipping the module-attribute lookup is measurable at fleet scale.
_heappush = heapq.heappush
_heappop = heapq.heappop

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
    (scheduled with a value, waiting in the queue) and *processed* (callbacks
    ran).  Waiting is expressed by a process ``yield``-ing the event.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
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
        self._processed = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError(f"value of {self!r} not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"value of {self!r} not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, NORMAL)
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
        self.sim._schedule(self, 0.0, NORMAL)
        return self

    def _run_callbacks(self) -> None:
        # Hot path: one list swap, then direct dispatch.  The common case is
        # a single waiter, which the plain for-loop already handles without
        # extra allocation; the swap-to-None is what marks "processed" for
        # late waiters (see Process._resume).
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    ``daemon=True`` marks a housekeeping timer (background scrubbers,
    telemetry pollers): like daemon threads, daemon events never keep the
    simulation alive — an unbounded :meth:`Simulator.run` returns once only
    daemon events remain.
    """

    __slots__ = ("delay",)

    def __init__(
        self, sim: "Simulator", delay: float, value: Any = None, daemon: bool = False
    ):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__: timeouts are the single most-created
        # object in any run (every latency model yields one), so the slots
        # are set directly and the name is static — the delay is readable
        # from the ``delay`` slot and shown by __repr__.
        self.sim = sim
        self.name = "timeout"
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay, NORMAL, daemon)

    def __repr__(self) -> str:
        return f"<Timeout({self.delay:g}) at {id(self):#x}>"


class Initialize(Event):
    """Internal: kicks a newly created process at the current time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.name = "init"
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        sim._schedule(self, 0.0, URGENT)


class Process(Event):
    """A running coroutine.  Also an event: fires when the coroutine ends.

    The wrapped generator yields events; the process suspends until the
    yielded event triggers, then resumes with the event's value (or the
    event's exception raised at the yield point).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        # Flattened Event.__init__: processes are created per page in the
        # streaming-app readahead loop.
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        self._target: Event | None = None
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

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
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # The inner interpreter loop: every yield in every model process
        # passes through here, so locals are bound once up front.
        sim = self.sim
        send = self._generator.send
        throw = self._generator.throw
        sim._active = self
        self._target = None
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = throw(event._value)
            except StopIteration as stop:
                self._triggered = True
                self._ok = True
                self._value = stop.value
                sim._schedule(self, 0.0, NORMAL)
                break
            except BaseException as exc:
                self._triggered = True
                self._ok = False
                self._value = exc
                sim._schedule(self, 0.0, NORMAL)
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
            callbacks.append(self._resume)
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
        self._now = 0.0
        self._queue: list[tuple[float, int, int, bool, Event]] = []
        self._seq = itertools.count()
        self._active: Process | None = None
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self._live = 0  # scheduled non-daemon events
        #: Total events processed since construction (perf accounting).
        self.events_processed = 0

    # -- time -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, daemon: bool = False) -> Timeout:
        return Timeout(self, delay, value, daemon=daemon)

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
        _heappush(
            self._queue, (self._now + delay, priority, next(self._seq), daemon, event)
        )
        if not daemon:
            self._live += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def live_events(self) -> int:
        """Scheduled non-daemon events (what keeps :meth:`run` going)."""
        return self._live

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _seq, daemon, event = _heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        if not daemon:
            self._live -= 1
        self._now = when
        self.events_processed += 1
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until live work drains, ``until`` seconds pass, or an event
        fires.

        Daemon events (background housekeeping timers) do not keep an
        unbounded run alive, but *are* processed inside a bounded
        ``run(until=<time>)`` window.  When ``until`` is an :class:`Event`,
        returns that event's value.
        """
        # The three dispatch loops below are step() inlined: pop, advance
        # time, run callbacks.  The per-event method call and the redundant
        # past-event guard (unreachable via _schedule, which never produces
        # a time below now) are what the inlining removes.  step() remains
        # for external single-step callers.
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                return stop._value if stop._ok else self._raise(stop)
            flag: list[bool] = []
            stop.callbacks.append(lambda ev: flag.append(True))
            while queue and self._live > 0 and not flag:
                when, _prio, _seq, daemon, event = _heappop(queue)
                if not daemon:
                    self._live -= 1
                self._now = when
                self.events_processed += 1
                event._run_callbacks()
            if not flag:
                raise SimulationError(
                    f"live schedule drained before {stop!r} fired"
                )
            return stop._value if stop._ok else self._raise(stop)

        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        if horizon == float("inf"):
            while queue and self._live > 0:
                when, _prio, _seq, daemon, event = _heappop(queue)
                if not daemon:
                    self._live -= 1
                self._now = when
                self.events_processed += 1
                event._run_callbacks()
        else:
            while queue and queue[0][0] <= horizon:
                when, _prio, _seq, daemon, event = _heappop(queue)
                if not daemon:
                    self._live -= 1
                self._now = when
                self.events_processed += 1
                event._run_callbacks()
            self._now = horizon
        return None

    @staticmethod
    def _raise(event: Event) -> Any:
        raise event._value
