"""Block devices: how an OS reaches storage.

Two implementations matter for the paper's architecture:

- :class:`FlashAccessDevice` — the **flash access device driver** inside the
  ISPS Linux: a direct, low-latency path into the SSD's own FTL (no PCIe,
  no NVMe queueing).  This is why "ISPS can access the flash data more
  efficiently than the host CPU".
- :class:`NvmeBlockDevice` — the host's path: every page crosses the NVMe
  queue pair and the PCIe fabric.

Both expose the same protocol, so the same filesystem (and therefore the
same unmodified application) runs on either side — the porting-effort claim.
"""

from __future__ import annotations

from typing import Generator, Protocol, runtime_checkable

from repro.ftl import TranslationBackend
from repro.nvme.commands import NvmeCommand, Opcode
from repro.nvme.queues import QueuePair
from repro.sim import Simulator

__all__ = ["BlockDevice", "FlashAccessDevice", "NvmeBlockDevice"]


@runtime_checkable
class BlockDevice(Protocol):
    """Minimal page-granular block device."""

    page_size: int
    pages: int

    def read(self, lpn: int) -> Generator: ...

    def write(self, lpn: int, data: bytes | None) -> Generator: ...

    def trim(self, lpns: list[int]) -> Generator: ...

    def flush(self) -> Generator: ...


class FlashAccessDevice:
    """Direct ISPS-to-FTL block device (the paper's flash access driver).

    ``driver_latency`` models the kernel crossing (syscall + driver + the
    controller mailbox); it is microseconds, versus the NVMe/PCIe path's
    command + DMA costs.
    """

    def __init__(self, sim: Simulator, ftl: TranslationBackend, driver_latency: float = 2e-6):
        self.sim = sim
        self.ftl = ftl
        self.driver_latency = driver_latency
        self.page_size = ftl.page_size
        self.pages = ftl.logical_pages
        self.reads = 0
        self.writes = 0

    def read(self, lpn: int) -> Generator:
        yield self.sim.timeout(self.driver_latency)
        data = yield from self.ftl.read(lpn)
        self.reads += 1
        return data

    def peek(self, lpn: int) -> bytes | None:
        """The payload :meth:`read` would return now, without simulated
        time (the NVMe path has no such shortcut)."""
        return self.ftl.peek(lpn)

    def write(self, lpn: int, data: bytes | None) -> Generator:
        yield self.sim.timeout(self.driver_latency)
        yield from self.ftl.write(lpn, data)
        self.writes += 1
        return None

    def trim(self, lpns: list[int]) -> Generator:
        yield self.sim.timeout(self.driver_latency)
        yield from self.ftl.trim(lpns)
        return None

    def flush(self) -> Generator:
        yield from self.ftl.flush()
        return None


class NvmeBlockDevice:
    """Host-side block device over an NVMe queue pair (and its PCIe port)."""

    def __init__(self, sim: Simulator, queue: QueuePair, page_size: int, pages: int):
        self.sim = sim
        self.queue = queue
        self.page_size = page_size
        self.pages = pages
        self.reads = 0
        self.writes = 0

    def read(self, lpn: int) -> Generator:
        completion = yield from self.queue.call(NvmeCommand(opcode=Opcode.READ, slba=lpn))
        completion.raise_for_status()
        self.reads += 1
        return completion.result[0]

    def write(self, lpn: int, data: bytes | None) -> Generator:
        completion = yield from self.queue.call(
            NvmeCommand(opcode=Opcode.WRITE, slba=lpn, data=data)
        )
        completion.raise_for_status()
        self.writes += 1
        return None

    def trim(self, lpns: list[int]) -> Generator:
        completion = yield from self.queue.call(NvmeCommand(opcode=Opcode.DSM_TRIM, lbas=lpns))
        completion.raise_for_status()
        return None

    def flush(self) -> Generator:
        completion = yield from self.queue.call(NvmeCommand(opcode=Opcode.FLUSH))
        completion.raise_for_status()
        return None
