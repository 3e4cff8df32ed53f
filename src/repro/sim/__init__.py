"""Discrete-event simulation kernel.

A small, deterministic, coroutine-based DES in the style of SimPy, built
from scratch because this environment has no SimPy.  Every hardware and
software component in the CompStor model is a :class:`Process` (a Python
generator that yields :class:`Event` objects) running inside a
:class:`Simulator`.

Determinism guarantees:

* a single event queue ordered by ``(time, priority, sequence)`` — ties are
  broken by insertion order, never by object identity;
* all randomness flows through named :func:`Simulator.rng` streams seeded
  from the simulator seed, so a run is reproducible from ``(seed, model)``.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import (
    PreemptionError,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "PreemptionError",
    "PriorityResource",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
