"""Command / Response / Minion / Query data structures (paper Section III.B).

A **minion** "travels from a client to a CompStor and delivers a command...
then waits until the in-situ processing is done to deliver the response back
to the client" — the client populates the command fields, the CompStor
populates the response fields (paper Fig. 3).

A **query** delivers an administrative message: load an executable at
runtime, or fetch device status (core utilisation, temperature) for load
balancing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = [
    "Command", "Minion", "Query", "QueryKind", "Response", "ResponseStatus",
    "reset_ids",
]

_minion_ids = itertools.count(1)
_query_ids = itertools.count(1)


def reset_ids() -> None:
    """Restart minion/query ID allocation (fresh-process state).

    IDs are process-global (they tag trace payloads and responses), so a
    scenario's IDs depend on what ran earlier in the process.  Hermetic
    scenarios — golden-schedule digests, determinism A/B comparisons —
    reset allocation first so a run is a pure function of (seed, model).
    """
    global _minion_ids, _query_ids
    _minion_ids = itertools.count(1)
    _query_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Command:
    """What to execute in-situ.

    ``command_line`` is a Linux shell command or pipeline; set ``script``
    for a multi-line shell script instead.  ``input_files`` / ``output_file``
    document the data contract (the agent validates inputs exist before
    spawning).  Linux-OS support is what makes arbitrary command lines —
    and dynamic task loading — possible at all (paper Table I).
    """

    command_line: str = ""
    script: str = ""
    input_files: tuple[str, ...] = ()
    output_file: str = ""
    priority: int = 0
    access: frozenset[str] = frozenset({"read", "write"})
    #: Watchdog: the agent kills the task after this many seconds of
    #: in-situ execution (0 = unlimited).
    timeout_seconds: float = 0.0

    def __post_init__(self) -> None:
        if bool(self.command_line) == bool(self.script):
            raise ValueError("exactly one of command_line or script must be set")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")

    @property
    def wire_bytes(self) -> int:
        """Serialised size estimate for PCIe transfer accounting."""
        return 128 + len(self.command_line) + len(self.script) + sum(
            len(f) for f in self.input_files
        )


class ResponseStatus(Enum):
    OK = "ok"
    APP_ERROR = "app-error"  # executable ran, non-zero exit
    REJECTED = "rejected"  # agent refused (missing input, unknown binary)
    CRASHED = "crashed"  # executable raised
    TIMEOUT = "timeout"  # agent watchdog killed the task
    ABORTED = "aborted"  # infrastructure killed the task (device/agent death)


@dataclass(slots=True)
class Response:
    """Outcome of an in-situ task: final status + time consumed inside the
    CompStor (paper: "the information about the outcome ... such as the
    final status of the command and time consumed to execute it")."""

    status: ResponseStatus = ResponseStatus.OK
    exit_code: int = 0
    stdout: bytes = b""
    detail: dict[str, Any] = field(default_factory=dict)
    execution_seconds: float = 0.0
    device: str = ""

    @property
    def ok(self) -> bool:
        return self.status == ResponseStatus.OK

    @property
    def wire_bytes(self) -> int:
        return 128 + len(self.stdout)


@dataclass(slots=True)
class Minion:
    """The command+response envelope (paper Fig. 3)."""

    command: Command
    response: Response | None = None
    minion_id: int = field(default_factory=lambda: next(_minion_ids))
    client: str = "client"
    created_at: float = 0.0
    completed_at: float | None = None
    #: Observability context (``repro.obs.spans.SpanContext``): each hop
    #: (client -> NVMe -> agent) re-parents it so the minion's life
    #: reconstructs as one causally-linked span tree.  ``None`` when the
    #: sender traces nothing — the wire format does not grow.
    span: Any = None

    @property
    def nbytes(self) -> int:
        """Return-trip wire size (minion + populated response)."""
        size = self.command.wire_bytes
        if self.response is not None:
            size += self.response.wire_bytes
        return size


class QueryKind(Enum):
    STATUS = "status"  # telemetry: utilisation, temperature, uptime
    LOAD_EXECUTABLE = "load-executable"  # dynamic task loading
    LIST_EXECUTABLES = "list-executables"
    LIST_FILES = "list-files"
    PING = "ping"


@dataclass(slots=True)
class Query:
    """Administrative round-trip (cannot trigger in-situ processing)."""

    kind: QueryKind
    payload: Any = None
    reply: Any = None
    query_id: int = field(default_factory=lambda: next(_query_ids))

    @property
    def wire_bytes(self) -> int:
        if self.kind == QueryKind.LOAD_EXECUTABLE:
            # shipping a binary image: model a realistic ELF size
            return 512 * 1024
        return 256

    @property
    def nbytes(self) -> int:
        """Return-trip wire size (reply payloads are small)."""
        return 512
