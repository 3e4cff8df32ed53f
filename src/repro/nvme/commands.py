"""NVMe command set.

Standard IO opcodes plus the vendor-specific range (0xC0+) CompStor uses to
tunnel in-storage-computation traffic.  LBAs address logical pages (the
FTL's unit); ``nlb`` counts pages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

__all__ = [
    "IscPayload", "NvmeCommand", "NvmeCompletion", "NvmeError", "Opcode",
    "Status", "reset_ids",
]

_cid_counter = itertools.count(1)


def reset_ids() -> None:
    """Restart CID allocation (fresh-process state; see proto.entities)."""
    global _cid_counter
    _cid_counter = itertools.count(1)


class Opcode(IntEnum):
    """Command opcodes (IO queue unless noted)."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    DSM_TRIM = 0x09  # dataset management / deallocate
    IDENTIFY = 0x06  # admin
    GET_LOG_PAGE = 0x02 + 0x100  # admin (offset to avoid clashing with READ)
    # Vendor-specific in-storage computation (CompStor)
    ISC_MINION = 0xC0  # deliver a minion; completion carries the response
    ISC_QUERY = 0xC1  # admin/telemetry query
    ISC_LOAD = 0xC2  # dynamic task loading: push an executable image

    @property
    def is_vendor(self) -> bool:
        return 0xC0 <= self.value < 0x100


class Status(IntEnum):
    SUCCESS = 0x0
    INVALID_OPCODE = 0x1
    INVALID_FIELD = 0x2
    LBA_OUT_OF_RANGE = 0x80
    MEDIA_ERROR = 0x81
    CAPACITY_EXCEEDED = 0x82
    DEVICE_UNAVAILABLE = 0x83  # controller crashed/unreachable (retryable)
    TRANSIENT = 0x84  # injected transient transport failure (retryable)
    ISC_FAILURE = 0xC0
    ISC_AGENT_DOWN = 0xC2  # ISPS agent daemon down, restart pending (retryable)


class NvmeError(Exception):
    """Raised on the host side when a completion carries a failure status."""

    def __init__(self, completion: "NvmeCompletion"):
        super().__init__(f"NVMe command {completion.cid} failed: {completion.status.name}")
        self.completion = completion


@dataclass(frozen=True, slots=True)
class IscPayload:
    """Opaque carrier for vendor commands (minion/query/executable image).

    ``nbytes`` drives the PCIe transfer size; ``body`` is the semantic
    content handed to the ISC handler.
    """

    body: Any
    nbytes: int = 256

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass(slots=True)
class NvmeCommand:
    """One submission queue entry."""

    opcode: Opcode
    nsid: int = 1
    slba: int = 0
    nlb: int = 1
    data: bytes | None = None  # write payload
    payload: IscPayload | None = None  # vendor payload
    lbas: list[int] | None = None  # DSM/TRIM ranges
    cid: int = field(default_factory=lambda: next(_cid_counter))

    def __post_init__(self) -> None:
        if self.nlb < 1:
            raise ValueError("nlb must be >= 1")
        if self.slba < 0:
            raise ValueError("slba must be non-negative")
        if self.opcode.is_vendor and self.payload is None:
            raise ValueError(f"{self.opcode.name} requires a payload")

    @property
    def transfer_bytes_to_device(self) -> int:
        """Host->device data size (for DMA accounting)."""
        if self.opcode == Opcode.WRITE:
            return len(self.data or b"")
        if self.opcode.is_vendor and self.payload is not None:
            return self.payload.nbytes
        return 0


@dataclass(frozen=True, slots=True)
class NvmeCompletion:
    """One completion queue entry."""

    cid: int
    status: Status
    result: Any = None
    submitted_at: float = 0.0
    completed_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == Status.SUCCESS

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at

    def raise_for_status(self) -> "NvmeCompletion":
        if not self.ok:
            raise NvmeError(self)
        return self
