"""Behavioural flash array model.

:class:`FlashArray` exposes the three NAND primitives — page read, page
program, block erase — as simulation processes.  Contention is physical:

- each **die** is a capacity-1 resource (one array operation at a time);
- each **channel bus** is a capacity-1 resource shared by the dies on it
  (command + data transfer occupy it);

so aggregate bandwidth grows with channels and per-channel parallelism is
limited by the bus — exactly the structure behind the paper's Fig. 1.

NAND protocol rules are enforced: pages within a block must be programmed
sequentially, a programmed page cannot be re-programmed before the block is
erased, and reading an erased page is a model bug (raises).

Reads and programs are addressed by the flat page index (``ppn``, the
row-major index of :meth:`FlashGeometry.page_index`) that the FTL's page map
and allocators hold: the block, die and channel of a page follow from it by
integer divisions by constants hoisted at construction, and a
:class:`PageAddress` is built only for the tracer and for error messages.
Erase takes a block address.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Generator

import numpy as np

from repro.flash.energy import FlashEnergy
from repro.flash.errors import BitErrorModel
from repro.flash.geometry import BlockAddress, FlashGeometry, PageAddress
from repro.flash.timing import FlashTiming
from repro.sim import Resource, Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = [
    "EraseFailure",
    "FlashArray",
    "FlashOpError",
    "FlashStats",
    "PageState",
]


class FlashOpError(Exception):
    """NAND protocol violation (program out of order, read erased page, ...)."""


class EraseFailure(Exception):
    """The block failed to erase — it has worn out (grown bad block)."""

    def __init__(self, block_index: int):
        super().__init__(f"erase failed on block {block_index}; block is bad")
        self.block_index = block_index


class PageState(IntEnum):
    ERASED = 0
    PROGRAMMED = 1


#: ``PageState.PROGRAMMED`` as a plain int for the per-page hot paths: numpy
#: compares an ``int8`` element with an ``IntEnum`` only after probing the
#: enum class for array dunders, one ``EnumType.__getattr__`` call each.
_PROGRAMMED = int(PageState.PROGRAMMED)


@dataclass(slots=True)
class FlashStats:
    """Operation counters for write-amplification and bandwidth reporting."""

    reads: int = 0
    programs: int = 0
    erases: int = 0
    bytes_read: int = 0
    bytes_programmed: int = 0
    energy_j: float = 0.0


class FlashArray:
    """A multi-channel NAND array under one controller.

    Parameters
    ----------
    sim:
        The simulator this array lives in.
    geometry, timing, energy, error_model:
        Component models; defaults model a 16-channel enterprise drive.
    energy_sink:
        Optional callback ``(component_name, joules)`` — wired to the power
        meter by the SSD assembly.
    store_data:
        Functional mode: keep page payloads in memory.  Analytic mode
        (``False``) tracks only states/wear/timing, for large sweeps.
    """

    def __init__(
        self,
        sim: Simulator,
        geometry: FlashGeometry | None = None,
        timing: FlashTiming | None = None,
        energy: FlashEnergy | None = None,
        error_model: BitErrorModel | None = None,
        name: str = "flash",
        tracer: Tracer | None = None,
        energy_sink: Callable[[str, float], None] | None = None,
        store_data: bool = True,
    ):
        self.sim = sim
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or FlashTiming()
        self.energy = energy or FlashEnergy()
        self.error_model = error_model or BitErrorModel()
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.energy_sink = energy_sink
        self.store_data = store_data

        geo = self.geometry
        self.channel_bus = [
            Resource(sim, capacity=1, name=f"{name}.ch{c}") for c in range(geo.channels)
        ]
        self.die_units = [
            Resource(sim, capacity=1, name=f"{name}.die{d}") for d in range(geo.dies)
        ]
        self.page_state = np.zeros(geo.pages, dtype=np.uint8)
        self.write_pointer = np.zeros(geo.blocks, dtype=np.int32)
        self.pe_cycles = np.zeros(geo.blocks, dtype=np.int32)
        self.program_time = np.zeros(geo.blocks, dtype=np.float64)
        # grown bad blocks: erase on a failed block raises EraseFailure
        self.failed_blocks: set[int] = set()
        self._data: dict[int, bytes] = {}
        # Out-of-band (spare-area) metadata per page.  Real NAND pages carry
        # a spare region where the FTL stamps the logical address and a
        # sequence number; it is what makes power-off recovery possible.
        # Kept even in analytic mode — it is metadata, not payload.
        self._oob: dict[int, Any] = {}
        self.stats = FlashStats()
        self._rng = sim.rng(f"{name}.ber")
        # Per-geometry constants, hoisted out of the per-page operations:
        # transfer time, energy and bit count depend only on the page size.
        self._t_page_xfer = self.timing.transfer_time(geo.page_size)
        self._page_bits = geo.page_size * 8
        self._e_read_page = self.energy.e_read + self.energy.transfer_energy(geo.page_size)
        self._e_prog_page = self.energy.e_prog + self.energy.transfer_energy(geo.page_size)
        # Flat-index arithmetic of the read and program paths (see the
        # module docstring).
        self._pages = geo.pages
        self._pages_per_block = geo.pages_per_block
        self._pages_per_die = geo.planes_per_die * geo.blocks_per_plane * geo.pages_per_block
        self._dies_per_channel = geo.dies_per_channel

    # -- helpers ----------------------------------------------------------
    def _die_id(self, addr: PageAddress | BlockAddress) -> int:
        return addr.channel * self.geometry.dies_per_channel + addr.die

    def _charge(self, joules: float) -> None:
        self.stats.energy_j += joules
        if self.energy_sink is not None:
            self.energy_sink(self.name, joules)

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak media bandwidth: channels x channel rate (bytes/s)."""
        return self.geometry.channels * self.timing.channel_rate

    # -- operations (simulation processes) ---------------------------------
    def read_page(self, ppn: int, retention_s: float | None = None) -> Generator:
        """Read page ``ppn`` (its flat index): die array-read, then bus
        transfer.

        Yields inside a process; returns ``(data, raw_bit_errors)``: the
        stored payload (``None`` in analytic mode) and the sampled raw bit
        errors that feed the ECC engine.
        """
        if not 0 <= ppn < self._pages:
            raise ValueError(f"page index {ppn} out of range [0, {self._pages})")
        if self.page_state[ppn] != _PROGRAMMED:
            raise FlashOpError(f"read of erased page {self.geometry.page_address(ppn)}")
        die_id = ppn // self._pages_per_die
        die = self.die_units[die_id]
        bus = self.channel_bus[die_id // self._dies_per_channel]
        sim = self.sim

        with die.request() as dreq:
            yield dreq
            yield sim.timeout(self.timing.t_read)
        with bus.request() as breq:
            yield breq
            yield sim.timeout(self._t_page_xfer)

        block_idx = ppn // self._pages_per_block
        if retention_s is None:
            # max(0.0, age) without the builtin call: NaN and -0.0 map to
            # 0.0 exactly as max() maps them.
            retention_s = sim.now - float(self.program_time[block_idx])
            if not retention_s > 0.0:
                retention_s = 0.0
        errors = self.error_model.sample_errors(
            self._rng, self._page_bits, int(self.pe_cycles[block_idx]), retention_s
        )
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += self.geometry.page_size
        # _charge inlined
        stats.energy_j += self._e_read_page
        if self.energy_sink is not None:
            self.energy_sink(self.name, self._e_read_page)
        if self.tracer.enabled:
            self.tracer.emit(
                sim.now, self.name, "flash.read",
                addr=self.geometry.page_address(ppn), errors=errors,
            )
        return self._data.get(ppn), errors

    def stored_page(self, ppn: int) -> bytes | None:
        """The payload :meth:`read_page` returns for page ``ppn``, without
        simulated time (``None`` in analytic mode)."""
        return self._data.get(ppn)

    def page_oob(self, ppn: int) -> Any:
        """Spare-area metadata of page ``ppn`` (``None`` if absent)."""
        return self._oob.get(ppn)

    def program_page(self, ppn: int, data: bytes | None = None, oob: Any = None) -> Generator:
        """Program page ``ppn`` (its flat index): bus transfer in, then die
        program.

        Enforces in-order programming within the block.
        """
        if not 0 <= ppn < self._pages:
            raise ValueError(f"page index {ppn} out of range [0, {self._pages})")
        block_idx = ppn // self._pages_per_block
        page = ppn - block_idx * self._pages_per_block
        if self.page_state[ppn] == _PROGRAMMED:
            raise FlashOpError(
                f"program of already-programmed page {self.geometry.page_address(ppn)}"
            )
        expected = int(self.write_pointer[block_idx])
        if page != expected:
            raise FlashOpError(
                f"out-of-order program: block {self.geometry.block_address(block_idx)} "
                f"expects page {expected}, got {page}"
            )
        if data is not None and len(data) > self.geometry.page_size:
            raise FlashOpError(
                f"payload of {len(data)} bytes exceeds page size {self.geometry.page_size}"
            )
        die_id = ppn // self._pages_per_die
        die = self.die_units[die_id]
        bus = self.channel_bus[die_id // self._dies_per_channel]
        sim = self.sim

        with bus.request() as breq:
            yield breq
            yield sim.timeout(self._t_page_xfer)
        with die.request() as dreq:
            yield dreq
            yield sim.timeout(self.timing.t_prog)

        self.page_state[ppn] = _PROGRAMMED
        self.write_pointer[block_idx] = page + 1
        self.program_time[block_idx] = sim.now
        if self.store_data and data is not None:
            self._data[ppn] = data
        if oob is not None:
            self._oob[ppn] = oob
        stats = self.stats
        stats.programs += 1
        stats.bytes_programmed += self.geometry.page_size
        # _charge inlined
        stats.energy_j += self._e_prog_page
        if self.energy_sink is not None:
            self.energy_sink(self.name, self._e_prog_page)
        if self.tracer.enabled:
            self.tracer.emit(
                sim.now, self.name, "flash.program", addr=self.geometry.page_address(ppn)
            )
        return ppn

    def mark_block_failed(self, block_index: int) -> None:
        """Failure injection: the next erase of this block raises
        :class:`EraseFailure` (a grown bad block)."""
        if not 0 <= block_index < self.geometry.blocks:
            raise ValueError(f"no such block {block_index}")
        self.failed_blocks.add(block_index)

    def erase_block(self, block: BlockAddress) -> Generator:
        """Erase one block, resetting its pages and incrementing wear.

        Raises :class:`EraseFailure` for blocks marked bad — pages that were
        already programmed stay readable (real NAND erase failures leave the
        array contents intact), but the block can never be reused.
        """
        geo = self.geometry
        geo.validate(block)
        block_idx = geo.block_index(block)
        die = self.die_units[self._die_id(block)]

        with die.request() as dreq:
            yield dreq
            yield self.sim.timeout(self.timing.t_erase)
        if block_idx in self.failed_blocks:
            self.tracer.emit(self.sim.now, self.name, "flash.erase-failure", block=block)
            raise EraseFailure(block_idx)

        start = block_idx * geo.pages_per_block
        stop = start + geo.pages_per_block
        self.page_state[start:stop] = PageState.ERASED
        self.write_pointer[block_idx] = 0
        self.pe_cycles[block_idx] += 1
        if self.store_data:
            for idx in range(start, stop):
                self._data.pop(idx, None)
        for idx in range(start, stop):
            self._oob.pop(idx, None)
        self.stats.erases += 1
        self._charge(self.energy.e_erase)
        self.tracer.emit(self.sim.now, self.name, "flash.erase", block=block)
        return block

