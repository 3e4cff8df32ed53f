"""OS process bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.isos.loader import ExitStatus
from repro.sim.core import Process

__all__ = ["OsProcess", "ProcessState", "reset_ids"]

_pid_counter = itertools.count(100)


def reset_ids() -> None:
    """Restart PID allocation (fresh-process state; see proto.entities)."""
    global _pid_counter
    _pid_counter = itertools.count(100)


class ProcessState(Enum):
    RUNNING = "running"
    EXITED = "exited"
    FAILED = "failed"


@dataclass(slots=True)
class OsProcess:
    """One spawned command."""

    command: str
    sim_process: Process
    pid: int = field(default_factory=lambda: next(_pid_counter))
    started_at: float = 0.0
    finished_at: float | None = None
    state: ProcessState = ProcessState.RUNNING
    exit_status: ExitStatus | None = None
    error: BaseException | None = None
