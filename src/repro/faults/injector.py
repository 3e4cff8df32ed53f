"""Executes a :class:`~repro.faults.plan.FaultPlan` against live devices.

One injector process per planned fault: sleep (on a daemon timer, so chaos
never keeps a drained simulation alive) until the fault's time, flip the
fault state installed on the target device, and — for bounded faults —
sleep again and recover.  Crash kinds also SIGKILL every in-situ process on
the device, so minions running at the moment of failure die the way they
would on real hardware; the agent reports them ``ABORTED`` (retryable)
rather than ``TIMEOUT``.

State objects are installed lazily: a device never named by the plan keeps
``faults = None`` and its hot path is untouched, preserving bit-identical
schedules for fault-free runs.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Generator, Mapping

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.state import AgentFaultState, DeviceFaultState
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.sim import Simulator, Tracer
from repro.sim.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.ssd.compstor import CompStorSSD

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's faults onto a set of CompStor devices.

    ``targets`` maps ``(node_index, device_name)`` to the device assembly —
    device names repeat across nodes (every node has a ``compstor0``), so
    the pair is the fleet-wide identity.
    """

    def __init__(
        self,
        sim: Simulator,
        targets: Mapping[tuple[int, str], "CompStorSSD"],
        plan: FaultPlan,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.targets = dict(targets)
        self.plan = plan
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: ``(sim_time, description)`` log in application order — the chaos
        #: determinism tests compare this across runs.
        self.applied: list[tuple[float, str]] = []
        #: faults injected and recovered, by (kind, target)
        self.injected: Counter[tuple[str, str]] = Counter()
        self.recovered: Counter[tuple[str, str]] = Counter()
        self.metrics.counter_view("faults.injected", "faults injected, by kind and target",
                                  lambda: self.injected, keys=("kind", "target"))
        self.metrics.counter_view(
            "faults.recovered", "bounded faults that reached recovery, by kind and target",
            lambda: self.recovered, keys=("kind", "target"),
        )
        self.minions_killed = 0
        self._started = False

    # -- construction helpers ------------------------------------------------
    @classmethod
    def for_fleet(
        cls,
        fleet,
        plan: FaultPlan,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "FaultInjector":
        targets = {
            (node_index, ssd.name): ssd
            for node_index, node in enumerate(fleet.nodes)
            for ssd in node.compstors
        }
        return cls(fleet.sim, targets, plan, metrics=metrics, tracer=tracer)

    @classmethod
    def for_node(
        cls,
        node,
        plan: FaultPlan,
        node_index: int = 0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "FaultInjector":
        targets = {(node_index, ssd.name): ssd for ssd in node.compstors}
        return cls(node.sim, targets, plan, metrics=metrics, tracer=tracer)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Arm the plan: one daemon-timed process per fault event."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for event in self.plan.events():
            if event.target not in self.targets:
                raise KeyError(
                    f"fault targets unknown device node{event.node}/{event.device} "
                    f"(have: {sorted(self.targets)})"
                )
            self.sim.process(
                self._runner(event), name=f"fault.{event.kind.value}@{event.device}"
            )
        return self

    def _runner(self, event: FaultEvent) -> Generator:
        if event.time > self.sim.now:
            yield self.sim.timeout(event.time - self.sim.now, daemon=True)
        self._apply(event)
        if event.duration is not None:
            yield self.sim.timeout(event.duration, daemon=True)
            self._recover(event)
        return None

    # -- state installation ----------------------------------------------------
    def device_state(self, node: int, device: str) -> DeviceFaultState:
        """The NVMe-level fault state for a target, installing it if absent."""
        ssd = self.targets[(node, device)]
        if ssd.controller.faults is None:
            # dedicated stream: fault draws never perturb media randomness
            ssd.controller.faults = DeviceFaultState(
                rng=self.sim.rng(f"faults.n{node}.{device}")
            )
        return ssd.controller.faults

    def agent_state(self, node: int, device: str) -> AgentFaultState:
        """The agent-level fault state for a target, installing it if absent."""
        ssd = self.targets[(node, device)]
        if ssd.agent.faults is None:
            ssd.agent.faults = AgentFaultState()
        return ssd.agent.faults

    # -- fault application -----------------------------------------------------
    def _tag(self, event: FaultEvent) -> str:
        return f"node{event.node}/{event.device}"

    def _apply(self, event: FaultEvent) -> None:
        node, device = event.target
        ssd = self.targets[event.target]
        if event.kind is FaultKind.DEVICE_CRASH:
            dev = self.device_state(node, device)
            dev.crashed = True
            dev.crashes += 1
            # the whole device is gone: its agent and every in-situ process
            self.agent_state(node, device).down = True
            self._kill_in_situ(ssd, "fault.device-crash")
        elif event.kind is FaultKind.AGENT_CRASH:
            agent = self.agent_state(node, device)
            agent.down = True
            agent.crashes += 1
            self._kill_in_situ(ssd, "fault.agent-crash")
        elif event.kind is FaultKind.TRANSIENT:
            self.device_state(node, device).transient_fraction = event.fraction
        else:  # LIMP
            self.device_state(node, device).limp_factor = event.factor
        self.applied.append((self.sim.now, event.describe()))
        self.tracer.emit(
            self.sim.now, "faults", "fault.injected",
            fault=event.kind.value, target=self._tag(event),
        )
        self.injected[event.kind.value, self._tag(event)] += 1

    def _recover(self, event: FaultEvent) -> None:
        node, device = event.target
        if event.kind is FaultKind.DEVICE_CRASH:
            dev = self.device_state(node, device)
            dev.crashed = False
            dev.recoveries += 1
            agent = self.agent_state(node, device)
            agent.down = False
            agent.restarts += 1
        elif event.kind is FaultKind.AGENT_CRASH:
            agent = self.agent_state(node, device)
            agent.down = False
            agent.restarts += 1
        elif event.kind is FaultKind.TRANSIENT:
            self.device_state(node, device).transient_fraction = 0.0
        else:  # LIMP
            self.device_state(node, device).limp_factor = 1.0
        self.applied.append((self.sim.now, f"recovered: {event.describe()}"))
        self.tracer.emit(
            self.sim.now, "faults", "fault.recovered",
            fault=event.kind.value, target=self._tag(event),
        )
        self.recovered[event.kind.value, self._tag(event)] += 1

    def _kill_in_situ(self, ssd: "CompStorSSD", reason: str) -> None:
        """SIGKILL every live process on the device's embedded OS.

        The agent's waiters see ``Interrupt(reason)``; the ``fault.`` prefix
        tells the agent this was infrastructure death (``ABORTED``), not its
        own watchdog (``TIMEOUT``).
        """
        os_ = ssd.isps.os
        for pid in sorted(os_.process_table):
            if os_.process_table[pid].alive and os_.kill(pid, reason):
                self.minions_killed += 1

    # -- reporting -------------------------------------------------------------
    def recovery_counts(self) -> dict[str, int]:
        """Fleet-wide fault/recovery tallies from the installed states."""
        out = {
            "device_crashes": 0,
            "device_recoveries": 0,
            "agent_crashes": 0,
            "agent_restarts": 0,
            "commands_refused": 0,
            "transients_injected": 0,
            "minions_killed": self.minions_killed,
        }
        for ssd in self.targets.values():
            dev = ssd.controller.faults
            if dev is not None:
                out["device_crashes"] += dev.crashes
                out["device_recoveries"] += dev.recoveries
                out["commands_refused"] += dev.commands_refused
                out["transients_injected"] += dev.transients_injected
            agent = ssd.agent.faults
            if agent is not None:
                out["agent_crashes"] += agent.crashes
                out["agent_restarts"] += agent.restarts
        return out
