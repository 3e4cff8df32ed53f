"""Fault-surface hooks installed into device components.

The hardware boundaries the paper draws — NVMe front-end, ISPS agent,
whole-device — each get one small mutable state object that the component
consults on its hot path.  The contract mirrors ``repro.obs``: components
are constructed with ``self.faults = None`` and pay exactly one attribute
test per command when no injector ever touched them, so a fault-free run's
schedule is bit-identical to a build without the subsystem.

This module deliberately imports nothing from the rest of the model (the
NVMe controller and the ISPS agent import *it*), so the dependency arrow
points from hardware to fault plumbing, never back.
"""

from __future__ import annotations

from typing import Any

__all__ = ["AgentFaultState", "AgentUnavailable", "DeviceFaultState"]

#: Interrupt causes carrying this prefix mark infrastructure kills (agent or
#: device death), as opposed to the watchdog's policy kill.
FAULT_CAUSE_PREFIX = "fault."


class AgentUnavailable(Exception):
    """The ISPS agent daemon is down (crashed, not yet restarted).

    Raised out of the agent's ISC dispatch; the NVMe controller converts it
    into a retryable ``ISC_AGENT_DOWN`` completion status.
    """


class DeviceFaultState:
    """Injected NVMe-level trouble for one device.

    ``crashed`` refuses every command (the host driver's view of a dead
    drive: immediate aborts).  ``transient_fraction`` fails that share of
    commands with a retryable status, drawn from a dedicated deterministic
    RNG stream so fault draws never perturb media randomness.
    ``limp_factor`` multiplies front-end firmware latency — the "limping"
    device that answers, slowly.
    """

    __slots__ = (
        "crashed",
        "limp_factor",
        "transient_fraction",
        "rng",
        "crashes",
        "recoveries",
        "commands_refused",
        "transients_injected",
    )

    def __init__(self, rng: Any = None):
        self.crashed = False
        self.limp_factor = 1.0
        self.transient_fraction = 0.0
        self.rng = rng
        self.crashes = 0
        self.recoveries = 0
        self.commands_refused = 0
        self.transients_injected = 0

    def intercept(self) -> str | None:
        """Status name to fail the next command with, or None to proceed.

        Called by the controller worker once per fetched command.  Only
        draws randomness while a transient window is open, so closed-window
        operation consumes nothing from the stream.
        """
        if self.crashed:
            self.commands_refused += 1
            return "DEVICE_UNAVAILABLE"
        if self.transient_fraction > 0.0 and self.rng is not None:
            if self.rng.random() < self.transient_fraction:
                self.transients_injected += 1
                return "TRANSIENT"
        return None


class AgentFaultState:
    """Injected ISPS-agent trouble for one device.

    ``down`` makes the agent refuse new minions/queries (the controller
    answers ``ISC_AGENT_DOWN``); the injector's supervisor clears it after
    the restart delay and bumps ``restarts`` — the count telemetry exposes.
    """

    __slots__ = ("down", "crashes", "restarts")

    def __init__(self):
        self.down = False
        self.crashes = 0
        self.restarts = 0
