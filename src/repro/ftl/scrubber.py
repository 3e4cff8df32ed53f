"""Background patrol scrubber (retention management).

NAND raw bit error rate grows with retention time; data written once and
read years later (exactly the cold-archive profile of a 24 TB drive) can
silently drift past the ECC's correction capability.  Enterprise FTLs run a
*patrol read*: walk the valid blocks, decode a sample page, and refresh
(relocate + erase) any block whose error level approaches the ECC limit.

:class:`PatrolScrubber` implements that loop over the existing GC machinery:
refreshing a block is just a forced collection, so relocated data lands on a
freshly-erased block with its retention clock reset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.ftl import FlashTranslationLayer

__all__ = ["PatrolScrubber"]


class PatrolScrubber:
    """Walks closed blocks and refreshes those near the ECC limit.

    Parameters
    ----------
    ftl:
        The translation layer to patrol.
    interval:
        Seconds between patrol passes.
    margin:
        Refresh when the *expected* per-codeword error count exceeds
        ``margin x capability`` (0.5 = refresh at half the ECC budget).
    """

    def __init__(
        self,
        ftl: "FlashTranslationLayer",
        interval: float = 30.0,
        margin: float = 0.5,
        enabled: bool = True,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 < margin <= 1:
            raise ValueError("margin must be in (0, 1]")
        self.ftl = ftl
        self.interval = interval
        self.margin = margin
        self.blocks_scanned = 0
        self.blocks_refreshed = 0
        self.process = None
        if enabled:
            self.process = ftl.sim.process(self._run(), name=f"{ftl.name}.scrub")

    # -- decision logic ------------------------------------------------------
    def _block_at_risk(self, block_index: int) -> bool:
        ftl = self.ftl
        geo = ftl.flash.geometry
        pe = int(ftl.flash.pe_cycles[block_index])
        retention = max(0.0, ftl.sim.now - float(ftl.flash.program_time[block_index]))
        layout = ftl.ecc.config.layout
        expected = ftl.flash.error_model.expected_errors(
            nbits=layout.codeword_bytes * 8, pe_cycles=pe, retention_s=retention
        )
        return expected > self.margin * ftl.ecc.config.capability

    def _patrol_targets(self) -> tuple[list[int], list[int]]:
        """(closed, open-frontier) blocks holding valid data."""
        ftl = self.ftl
        closed = [
            b
            for b in ftl.allocator.closed_blocks()
            if ftl.page_map.valid_pages_in_block(b) > 0
        ]
        open_ = [
            b
            for b in ftl.allocator.open_blocks()
            if b is not None and ftl.page_map.valid_pages_in_block(b) > 0
        ]
        return closed, open_

    # -- patrol loop -----------------------------------------------------------
    def _run(self) -> Generator:
        ftl = self.ftl
        while True:
            # daemon timer: patrols never keep the simulation alive
            yield ftl.sim.timeout(self.interval, daemon=True)
            closed, open_ = self._patrol_targets()
            # each refresh yields, so the collector may reclaim (and free)
            # a listed block before its turn: re-check it just before acting
            for block in closed:
                self.blocks_scanned += 1
                if self._block_at_risk(block) and self._still_closed(block):
                    yield from self.refresh(block)
            for block in open_:
                # an open frontier cannot be erased, but its cold data can
                # still be rewritten elsewhere (relocation-only refresh)
                self.blocks_scanned += 1
                if self._block_at_risk(block) and block in ftl.allocator.open_blocks():
                    yield from self.refresh_data_only(block)

    def _still_closed(self, block_index: int) -> bool:
        ftl = self.ftl
        return (
            block_index in ftl.allocator.closed_blocks()
            and ftl.page_map.valid_pages_in_block(block_index) > 0
        )

    def refresh_data_only(self, block_index: int) -> Generator:
        """Relocate valid data out of a block without erasing it."""
        ftl = self.ftl
        if block_index in ftl._reclaiming:
            return None
        ftl._reclaiming.add(block_index)
        try:
            for lpn in ftl.page_map.valid_lpns_in_block(block_index):
                old_ppn = ftl.page_map.lookup(lpn)
                if old_ppn // ftl.flash.geometry.pages_per_block != block_index:
                    continue
                yield from ftl.relocate(lpn, old_ppn)
            self.blocks_refreshed += 1
            ftl.tracer.emit(ftl.sim.now, ftl.name, "scrub.refresh-data", block=block_index)
        finally:
            ftl._reclaiming.discard(block_index)
        return None

    def refresh(self, block_index: int) -> Generator:
        """Relocate a block's valid data and erase it (retention reset)."""
        ftl = self.ftl
        if block_index in ftl._reclaiming:
            return None  # the garbage collector got there first
        ftl._reclaiming.add(block_index)
        try:
            yield from self._refresh_inner(block_index)
        finally:
            ftl._reclaiming.discard(block_index)
        return None

    def _refresh_inner(self, block_index: int) -> Generator:
        from repro.flash.package import EraseFailure

        ftl = self.ftl
        gc = ftl.gc
        for lpn in ftl.page_map.valid_lpns_in_block(block_index):
            old_ppn = ftl.page_map.lookup(lpn)
            if old_ppn // ftl.flash.geometry.pages_per_block != block_index:
                continue
            yield from gc._relocate_or_drop(lpn, old_ppn)
        while ftl._readers[block_index] > 0 or ftl._writers[block_index] > 0:
            yield ftl.sim.timeout(ftl.reader_quiesce_delay)
        # late binds may have re-validated pages; relocate the stragglers
        for lpn in ftl.page_map.valid_lpns_in_block(block_index):
            yield from gc._relocate_or_drop(lpn, ftl.page_map.lookup(lpn))
        ftl.page_map.release_block(block_index)
        try:
            yield from ftl.flash.erase_block(ftl.flash.geometry.block_address(block_index))
        except EraseFailure:
            ftl.allocator.retire_block(block_index)
            gc.blocks_retired += 1
            ftl.tracer.emit(ftl.sim.now, ftl.name, "scrub.block-retired", block=block_index)
            self.blocks_refreshed += 1
            return None
        ftl.allocator.release_block(block_index)
        self.blocks_refreshed += 1
        ftl.tracer.emit(ftl.sim.now, ftl.name, "scrub.refresh", block=block_index)
        return None
