"""Deterministic fault schedules.

A :class:`FaultPlan` is a pure description — ``(seed, builder calls)`` —
of *what* goes wrong *where* and *when*, on simulation time.  It owns no
simulator state, so the same plan can be replayed against fresh fleets and
two plans built the same way are equal event-for-event (the chaos
determinism tests hash :meth:`fingerprint`).

``FaultPlan.random`` derives a whole plan from one integer seed: the chaos
property tests feed random seeds through it and assert that jobs always
terminate with complete accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only (avoids a config cycle)
    from repro.config.schema import FaultsConfig

__all__ = ["FaultEvent", "FaultKind", "FaultPlan"]


class FaultKind(Enum):
    DEVICE_CRASH = "device-crash"
    AGENT_CRASH = "agent-crash"
    TRANSIENT = "transient"
    LIMP = "limp"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault on one device.

    ``duration`` is the recovery/restart delay for crash kinds and the
    window length for transient/limp kinds; ``None`` means permanent.
    """

    time: float
    kind: FaultKind
    node: int
    device: str
    duration: float | None = None
    fraction: float = 0.0  # TRANSIENT: share of commands failed
    factor: float = 1.0  # LIMP: firmware-latency multiplier

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault duration must be positive")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("transient fraction must be in [0, 1]")
        if self.factor < 1.0:
            raise ValueError("limp factor must be >= 1")

    @property
    def target(self) -> tuple[int, str]:
        return (self.node, self.device)

    def describe(self) -> str:
        what = self.kind.value
        if self.kind is FaultKind.TRANSIENT:
            what += f" {self.fraction * 100:.0f}%"
        if self.kind is FaultKind.LIMP:
            what += f" x{self.factor:g}"
        window = "permanent" if self.duration is None else f"for {self.duration * 1e3:.2f} ms"
        return f"{what} on node{self.node}/{self.device} at {self.time * 1e3:.3f} ms ({window})"


class FaultPlan:
    """An ordered, reproducible schedule of :class:`FaultEvent`s."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._events: list[FaultEvent] = []

    # -- builders (chainable) ------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def kill_device(
        self, node: int, device: str, at: float, recover_after: float | None = None
    ) -> "FaultPlan":
        """Whole-device crash: every command aborts, in-flight work dies."""
        return self.add(
            FaultEvent(at, FaultKind.DEVICE_CRASH, node, device, duration=recover_after)
        )

    def crash_agent(
        self, node: int, device: str, at: float, restart_after: float | None = 2e-3
    ) -> "FaultPlan":
        """ISPS agent dies mid-minion; a supervisor restarts it after the delay."""
        return self.add(
            FaultEvent(at, FaultKind.AGENT_CRASH, node, device, duration=restart_after)
        )

    def transient_window(
        self, node: int, device: str, at: float, duration: float, fraction: float = 0.05
    ) -> "FaultPlan":
        """Fail a fraction of NVMe commands with a retryable status."""
        return self.add(
            FaultEvent(
                at, FaultKind.TRANSIENT, node, device, duration=duration, fraction=fraction
            )
        )

    def limp(
        self,
        node: int,
        device: str,
        at: float,
        factor: float = 4.0,
        duration: float | None = None,
    ) -> "FaultPlan":
        """Slow the device's front end by ``factor`` (a limping drive)."""
        return self.add(
            FaultEvent(at, FaultKind.LIMP, node, device, duration=duration, factor=factor)
        )

    # -- inspection ----------------------------------------------------------
    def events(self) -> tuple[FaultEvent, ...]:
        """Events sorted by (time, insertion order) — the injection order."""
        decorated = sorted(enumerate(self._events), key=lambda e: (e[1].time, e[0]))
        return tuple(event for _, event in decorated)

    def __len__(self) -> int:
        return len(self._events)

    def fingerprint(self) -> str:
        """Stable digest of the schedule (chaos determinism assertions)."""
        canon = repr((self.seed, [repr(e) for e in self.events()]))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def describe_rows(self) -> list[list[Any]]:
        """``[time_ms, kind, target, detail]`` rows for table rendering."""
        rows: list[list[Any]] = []
        for event in self.events():
            detail = "permanent" if event.duration is None else f"{event.duration * 1e3:.2f} ms"
            if event.kind is FaultKind.TRANSIENT:
                detail += f", {event.fraction * 100:.0f}% of commands"
            if event.kind is FaultKind.LIMP:
                detail += f", x{event.factor:g}"
            rows.append(
                [f"{event.time * 1e3:.3f}", event.kind.value,
                 f"node{event.node}/{event.device}", detail]
            )
        return rows

    # -- declarative plans ---------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: "FaultsConfig",
        ring: Sequence[tuple[int, str]],
        base_time: float = 0.0,
    ) -> "FaultPlan":
        """A plan from a scenario's ``faults`` section, aimed at a device ring.

        Explicit events come first (``ring_index`` resolved modulo the ring),
        then ``config.random`` seeded-random faults over ``[0, horizon_ms)``;
        all times are in ms after ``base_time``.  Pure function of
        ``(config, ring, base_time)`` — the fingerprint is reproducible.
        """
        if not ring:
            raise ValueError("need at least one device to plan faults for")
        plan = cls(seed=config.seed)
        for spec in config.events:
            node, device = ring[spec.ring_index % len(ring)]
            at = base_time + spec.at_ms * 1e-3
            duration = None if spec.duration_ms is None else spec.duration_ms * 1e-3
            if spec.kind == FaultKind.DEVICE_CRASH.value:
                plan.kill_device(node, device, at, recover_after=duration)
            elif spec.kind == FaultKind.AGENT_CRASH.value:
                plan.crash_agent(
                    node, device, at,
                    restart_after=duration if duration is not None else 2e-3,
                )
            elif spec.kind == FaultKind.TRANSIENT.value:
                if duration is None:
                    raise ValueError("transient faults need duration_ms")
                plan.transient_window(
                    node, device, at, duration, fraction=spec.fraction
                )
            else:  # LIMP — FaultSpec validates the kind at construction
                plan.limp(node, device, at, factor=spec.factor, duration=duration)
        if config.random:
            random_plan = cls.random(
                config.seed, list(ring),
                horizon=config.horizon_ms * 1e-3,
                faults=config.random,
            )
            for event in random_plan.events():
                plan.add(replace(event, time=base_time + event.time))
        return plan

    # -- randomised plans ----------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        devices: Sequence[tuple[int, str]],
        horizon: float,
        faults: int = 3,
        allow_permanent: bool = True,
    ) -> "FaultPlan":
        """A reproducible random plan over ``devices`` within ``[0, horizon]``.

        Randomness comes from ``numpy.default_rng(seed)`` only — independent
        of any simulator, so the plan (and its fingerprint) is a pure
        function of its arguments.
        """
        if not devices:
            raise ValueError("need at least one device to plan faults for")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(seed)
        plan = cls(seed=seed)
        kinds = list(FaultKind)
        for _ in range(faults):
            node, device = devices[int(rng.integers(len(devices)))]
            kind = kinds[int(rng.integers(len(kinds)))]
            at = float(rng.uniform(0.0, horizon))
            duration = float(rng.uniform(horizon * 0.05, horizon * 0.5))
            if kind is FaultKind.DEVICE_CRASH:
                permanent = allow_permanent and bool(rng.random() < 0.5)
                plan.kill_device(node, device, at, None if permanent else duration)
            elif kind is FaultKind.AGENT_CRASH:
                plan.crash_agent(node, device, at, restart_after=duration)
            elif kind is FaultKind.TRANSIENT:
                plan.transient_window(
                    node, device, at, duration, fraction=float(rng.uniform(0.05, 0.8))
                )
            else:
                plan.limp(
                    node, device, at, factor=float(rng.uniform(1.5, 8.0)), duration=duration
                )
        return plan
