"""Fast-release host data buffer.

The paper's SSD controller includes a "fast-release host data buffer": host
writes complete as soon as the data lands in controller DRAM, and a
background flusher destages to NAND.  This hides tPROG from the host write
latency and coalesces rewrites of hot logical pages that are still buffered.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generator

from repro.sim import Event, Simulator

__all__ = ["WriteBuffer"]


class WriteBuffer:
    """A bounded write-back buffer keyed by logical page number.

    Parameters
    ----------
    sim:
        Simulator.
    capacity_pages:
        Maximum buffered pages; inserts beyond this block the writer
        (back-pressure towards the host).
    destage:
        Callback ``(lpn, data) -> generator`` that programs one page to
        flash; run by the internal flusher process.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_pages: int,
        destage: Callable[[int, bytes | None], Generator],
        name: str = "wbuf",
        workers: int = 4,
    ):
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim = sim
        self.name = name
        self._space_gate_name = f"{name}.space"
        self._data_gate_name = f"{name}.data"
        self._drained_gate_name = f"{name}.drained"
        self.capacity = capacity_pages
        self.destage = destage
        self.entries: "OrderedDict[int, bytes | None]" = OrderedDict()
        self._inflight_lpns: set[int] = set()  # destages in flight
        # Data being destaged stays readable (it is still only in DRAM until
        # the flash program completes and the mapping is bound).
        self._inflight_data: dict[int, bytes | None] = {}
        self._space_waiters: list[Event] = []
        self._data_waiters: list[Event] = []
        self._drain_waiters: list[Event] = []
        self.hits = 0  # rewrites coalesced while buffered
        self.inserts = 0
        self.destaged = 0
        self.failures: list[tuple[int, BaseException]] = []  # lost destages
        self._flushers = [
            sim.process(self._flush_loop(), name=f"{name}.flusher{i}") for i in range(workers)
        ]

    # -- public API ----------------------------------------------------------
    def put(self, lpn: int, data: bytes | None) -> Generator:
        """Insert (or overwrite) a buffered page; blocks while full."""
        while lpn not in self.entries and len(self.entries) >= self.capacity:
            gate = self.sim.event(self._space_gate_name)
            self._space_waiters.append(gate)
            yield gate
        if lpn in self.entries:
            self.entries[lpn] = data
            self.entries.move_to_end(lpn)
            self.hits += 1
        else:
            self.entries[lpn] = data
            self.inserts += 1
            self._wake(self._data_waiters)
        return None

    def peek(self, lpn: int) -> tuple[bool, bytes | None]:
        """(hit, data) — read-path lookup, no simulation time."""
        if lpn in self.entries:
            return True, self.entries[lpn]
        if lpn in self._inflight_data:
            return True, self._inflight_data[lpn]
        return False, None

    def discard(self, lpn: int) -> bool:
        """Drop a buffered page (TRIM path).  Returns True if present."""
        present = False
        if lpn in self.entries:
            del self.entries[lpn]
            self._wake(self._space_waiters)
            self._maybe_drained()
            present = True
        if lpn in self._inflight_data:
            # the destage still completes, but reads must not see the data;
            # the FTL unbinds the mapping once the destage drains
            del self._inflight_data[lpn]
            present = True
        return present

    def flush(self) -> Generator:
        """Wait until every buffered page reaches flash."""
        while self.entries or self._inflight_lpns:
            gate = self.sim.event(self._drained_gate_name)
            self._drain_waiters.append(gate)
            yield gate
        return None

    # -- internals ----------------------------------------------------------
    def _wake(self, waiters: list[Event]) -> None:
        if waiters:
            # succeed() only schedules (callbacks run later), so nothing can
            # append to the list mid-iteration; same FIFO order as popping.
            for gate in waiters:
                gate.succeed()
            waiters.clear()

    def _maybe_drained(self) -> None:
        if not self.entries and not self._inflight_lpns:
            self._wake(self._drain_waiters)

    def _pop_ready(self) -> tuple[int, bytes | None] | None:
        """Oldest entry whose lpn has no destage in flight (preserves
        per-lpn write ordering across parallel workers)."""
        for lpn in self.entries:
            if lpn not in self._inflight_lpns:
                return lpn, self.entries.pop(lpn)
        return None

    def _flush_loop(self) -> Generator:
        while True:
            item = self._pop_ready()
            while item is None:
                gate = self.sim.event(self._data_gate_name)
                self._data_waiters.append(gate)
                yield gate
                item = self._pop_ready()
            lpn, data = item
            self._inflight_lpns.add(lpn)
            self._inflight_data[lpn] = data
            self._wake(self._space_waiters)
            try:
                try:
                    yield from self.destage(lpn, data)
                except Exception as exc:
                    # A failed destage (e.g. device full) loses this page but
                    # must not kill the flusher — record it and keep serving
                    # the rest of the buffer.  Kernel-level errors still
                    # propagate (they indicate model bugs, not media state).
                    from repro.ftl.ftl import LogicalIOError

                    if not isinstance(exc, LogicalIOError):
                        raise
                    self.failures.append((lpn, exc))
            finally:
                self._inflight_lpns.discard(lpn)
                self._inflight_data.pop(lpn, None)
                self.destaged += 1
                self._wake(self._data_waiters)  # a same-lpn entry may be ready now
                self._maybe_drained()
