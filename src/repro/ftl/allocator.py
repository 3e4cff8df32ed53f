"""Free-block pool and write frontiers.

The allocator keeps one **write frontier** (active block + next page) per
die and per stream, so host writes and GC relocations stripe across dies and
never share a block — the standard hot/cold separation that keeps GC cheap.
Dynamic wear leveling happens here: when a frontier needs a fresh block, the
lowest-P/E free block on that die is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.package import FlashArray

__all__ = ["BlockAllocator", "Frontier", "OutOfSpaceError"]


class OutOfSpaceError(Exception):
    """No free block available on any die for the requesting stream."""


@dataclass(slots=True)
class Frontier:
    """An open block being filled sequentially."""

    block_index: int | None = None
    next_page: int = 0


class BlockAllocator:
    """Tracks free blocks per die and hands out pages to streams.

    Streams are small integers (``HOST = 0``, ``GC = 1``); each
    ``(stream, die)`` pair owns an independent frontier.  Pages are handed
    out as flat page indices (``ppn``), the form the page map and
    :meth:`FlashArray.program_page` take.  ``free_blocks`` is a running
    count of the per-die pools, kept equal to their summed sizes by every
    method that moves a block in or out of them.
    """

    HOST = 0
    GC = 1

    def __init__(self, flash: FlashArray, streams: int = 2, gc_reserve: int = 1):
        """``gc_reserve`` free blocks are claimable only by the GC stream —
        the classic reservation that guarantees the collector can always
        relocate a victim's valid pages and never deadlocks against host
        writes."""
        if streams < 1:
            raise ValueError("streams must be >= 1")
        if gc_reserve < 0:
            raise ValueError("gc_reserve must be >= 0")
        self.flash = flash
        self.geometry: FlashGeometry = flash.geometry
        self.streams = streams
        self.gc_reserve = gc_reserve
        geo = self.geometry
        self._blocks_per_die = geo.planes_per_die * geo.blocks_per_plane
        # free[die] = set of block indices on that die
        self.free: list[set[int]] = [set() for _ in range(geo.dies)]
        for index in range(geo.blocks):
            self.free[self._die_of_block(index)].add(index)
        self.free_blocks = geo.blocks
        self.frontiers: dict[tuple[int, int], Frontier] = {
            (stream, die): Frontier() for stream in range(streams) for die in range(geo.dies)
        }
        self.retired: set[int] = set()  # grown bad blocks, never reused

    # -- geometry helpers ------------------------------------------------------
    def _die_of_block(self, block_index: int) -> int:
        return block_index // self._blocks_per_die

    # -- allocation ---------------------------------------------------------
    def _open_block(self, stream: int, die: int) -> int:
        """Pick the lowest-P/E free block on ``die`` (dynamic wear leveling).

        Non-GC streams may not dip into the GC reserve."""
        pool = self.free[die]
        if not pool:
            raise OutOfSpaceError(f"die {die} has no free blocks")
        if stream != self.GC and self.free_blocks <= self.gc_reserve:
            raise OutOfSpaceError(
                f"only the GC reserve ({self.gc_reserve} blocks) remains"
            )
        pe = self.flash.pe_cycles
        best = min(pool, key=lambda b: (int(pe[b]), b))
        pool.remove(best)
        self.free_blocks -= 1
        return best

    def allocate_on_die(self, stream: int, die: int) -> int:
        """Next physical page (flat index) for ``stream`` on a specific die.

        Synchronous (no simulation time): the caller serialises allocations
        per ``(stream, die)`` and programs pages in allocation order, which
        satisfies NAND's in-order-within-block rule.
        """
        if not 0 <= stream < self.streams:
            raise ValueError(f"unknown stream {stream}")
        geo = self.geometry
        if not 0 <= die < geo.dies:
            raise ValueError(f"unknown die {die}")
        per_block = geo.pages_per_block
        frontier = self.frontiers[(stream, die)]
        if frontier.block_index is None or frontier.next_page >= per_block:
            frontier.block_index = self._open_block(stream, die)
            frontier.next_page = 0
        page = frontier.next_page
        frontier.next_page = page + 1
        return frontier.block_index * per_block + page

    def release_block(self, block_index: int) -> None:
        """Return an erased block to the free pool.

        A *full* frontier still pointing at this block is reset (the erase
        reclaimed it); releasing a partially-filled frontier is a bug.
        """
        die = self._die_of_block(block_index)
        if block_index in self.free[die]:
            raise ValueError(f"block {block_index} already free")
        for frontier in self.frontiers.values():
            if frontier.block_index == block_index:
                if frontier.next_page < self.geometry.pages_per_block:
                    raise ValueError(f"block {block_index} is an open frontier")
                frontier.block_index = None
                frontier.next_page = 0
        self.free[die].add(block_index)
        self.free_blocks += 1

    def mark_in_use(self, block_index: int) -> None:
        """Recovery: pull a block out of the free pool without opening it.

        Used when rebuilding state after a power cut — any block with
        programmed pages is in use (fully or partially; partial blocks are
        treated as closed and left to GC)."""
        pool = self.free[self._die_of_block(block_index)]
        if block_index in pool:
            pool.remove(block_index)
            self.free_blocks -= 1

    def retire_block(self, block_index: int) -> None:
        """Permanently remove a grown bad block from service."""
        die = self._die_of_block(block_index)
        if block_index in self.free[die]:
            raise ValueError(f"cannot retire free block {block_index}; allocate it out first")
        for frontier in self.frontiers.values():
            if frontier.block_index == block_index:
                frontier.block_index = None
                frontier.next_page = 0
        self.retired.add(block_index)

    def open_blocks(self) -> set[int]:
        """Blocks serving as frontiers with space remaining.  A completely
        filled frontier block is *closed* — it is a legitimate GC victim."""
        per_block = self.geometry.pages_per_block
        return {
            f.block_index
            for f in self.frontiers.values()
            if f.block_index is not None and f.next_page < per_block
        }

    def frontier_space(self, stream: int) -> int:
        """Erased pages remaining across ``stream``'s open frontiers."""
        per_block = self.geometry.pages_per_block
        return sum(
            per_block - f.next_page
            for (s, _die), f in self.frontiers.items()
            if s == stream and f.block_index is not None and f.next_page < per_block
        )

    def closed_blocks(self) -> list[int]:
        """Blocks that are neither free, open, nor retired (GC candidates)."""
        free_all = set().union(*self.free) if self.free else set()
        open_all = self.open_blocks()
        return [
            index
            for index in range(self.geometry.blocks)
            if index not in free_all
            and index not in open_all
            and index not in self.retired
        ]

    # -- wear statistics -------------------------------------------------------
    def wear_spread(self) -> tuple[int, int, float]:
        """(min, max, mean) P/E cycles over all blocks."""
        pe = self.flash.pe_cycles
        return int(pe.min()), int(pe.max()), float(np.mean(pe))
