"""Zoned (ZNS-style) translation backend.

:class:`ZonedFtl` exports the same logical page device as the page-mapped
FTL — so every consumer (NVMe controller, ISPS flash access driver,
staging, objstore) runs unmodified — but organises the media as
**zones**: fixed groups of whole erase blocks that admit only sequential
writes and are reclaimed by whole-zone reset.

It shares everything but placement and reclaim with the page FTL: the
front end (read, write, trim, flush, destage, read cache, metrics), the map
and OOB write sequence live in :class:`~repro.ftl.ftl.TranslationCore`, and
the collector loop is the shared :class:`~repro.ftl.gc.GarbageCollector`
with a zone as its unit.  This module owns:

- **zone-append allocation** — host writes are out-of-place appends at the
  write pointer of an open zone; up to ``max_open_zones`` host zones accept
  appends concurrently (one in-flight program per zone, so the NAND array's
  in-order-within-block rule holds by construction), behind a page-based
  admission floor;
- **write-pointer tracking** — one monotone pointer per zone, advancing
  from 0 to ``zone_pages`` and returning to 0 only through a reset, which
  only the collector issues (there is no host-side reset command);
- **whole-zone GC victims** — when free zones run low the collector takes
  the full zone with the fewest valid pages, appends every live page into
  its own GC zone (carrying the original OOB stamp), then resets the
  victim; an erase failure takes the whole zone offline;
- **the zone lifecycle** — :meth:`ZonedFtl._transition` is the one writer
  of zone state and refuses every edge but these (so a reset of an EMPTY
  zone, a double free, raises)::

      EMPTY -> OPEN     a slot takes it off the free list
      OPEN  -> FULL     its last page is programmed; it leaves the slot
      FULL  -> EMPTY    the collector's erase succeeds; back on the free list
      FULL  -> OFFLINE  an erase fails (a grown bad block); out of service

The page FTL's GC policy, wear levelling and block watermarks do not apply
here; a config that sets them is rejected rather than silently ignored.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Generator

import numpy as np

from repro.ecc import EccEngine
from repro.flash.package import EraseFailure, FlashArray
from repro.ftl.ftl import FtlConfig, LogicalIOError, TranslationCore
from repro.ftl.gc import GarbageCollector
from repro.obs.metrics import MetricsRegistry
from repro.sim import Resource, Simulator, Tracer

__all__ = ["ZoneState", "ZonedFtl"]


class ZoneState(IntEnum):
    EMPTY = 0
    OPEN = 1
    FULL = 2
    OFFLINE = 3  # grown bad block inside the zone: out of service


#: The legal zone-lifecycle edges (the module docstring's table).
_EDGES = {(ZoneState.EMPTY, ZoneState.OPEN), (ZoneState.OPEN, ZoneState.FULL),
          (ZoneState.FULL, ZoneState.EMPTY), (ZoneState.FULL, ZoneState.OFFLINE)}


class ZonedFtl(TranslationCore):
    """Logical page device over zones of a :class:`FlashArray`.

    ``zone_blocks`` whole erase blocks form one zone (trailing blocks that
    do not fill a zone are left unused); ``max_open_zones`` bounds the host
    append parallelism.  Over-provisioning, write-buffer size, read cache
    and latency knobs come from the shared :class:`~repro.ftl.ftl.FtlConfig`.
    """

    # Bound on each backend class, not only inherited, so per-class
    # instrumentation (the span boundaries in benchmarks/e2e/layers.py)
    # can tell the backends apart.
    read = TranslationCore.read
    write = TranslationCore.write
    trim = TranslationCore.trim

    def __init__(
        self,
        sim: Simulator,
        flash: FlashArray,
        ecc: EccEngine,
        config: FtlConfig | None = None,
        zone_blocks: int = 4,
        max_open_zones: int = 4,
        name: str = "ftl",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if zone_blocks < 1:
            raise ValueError("zone_blocks must be >= 1")
        if max_open_zones < 1:
            raise ValueError("max_open_zones must be >= 1")
        if config is not None:
            config.check_zoned()
        zone_count = flash.geometry.blocks // zone_blocks
        if zone_count < 3:
            raise ValueError(
                f"geometry yields {zone_count} zones of {zone_blocks} "
                "blocks; need >= 3 (one open, one GC, one free)"
            )
        super().__init__(
            sim, flash, ecc, config, name, tracer, metrics,
            unit="zone", units=zone_count, unit_blocks=zone_blocks,
        )
        self.zone_blocks = zone_blocks
        self.zone_pages = self._unit_pages
        self.zone_count = zone_count

        # zone state: _transition is its one writer, but for the per-page
        # pointer advance and _unwritten -= 1 in _append_in_slot
        self._zone_state = np.full(zone_count, ZoneState.EMPTY, dtype=np.uint8)
        self._zone_wp = np.zeros(zone_count, dtype=np.int32)
        self._free: deque[int] = deque(range(zone_count))
        # Running counts the append path reads on every page, kept equal to
        # their recomputed sums: programs in flight (``_writers.sum()``) and
        # unprogrammed pages the streams can still reach (free zones plus
        # the rest of every open zone).
        self._inflight = 0
        self._unwritten = zone_count * self.zone_pages
        self.zone_resets = 0
        self.zones_retired = 0

        # append slots: each open zone is owned by one (stream, slot) lock,
        # so appends to a zone serialise while distinct zones run parallel
        self._slots = {self.HOST: max_open_zones, self.GC: 1}
        self._open: dict[int, list[int | None]] = {
            stream: [None] * count for stream, count in self._slots.items()
        }
        self._locks = {
            (stream, slot): Resource(sim, capacity=1, name=f"{name}.z{stream}s{slot}")
            for stream, count in self._slots.items()
            for slot in range(count)
        }
        self._rr = {self.HOST: 0, self.GC: 0}

        self.write_buffer = self._start_write_buffer(workers=max(4, max_open_zones))
        # whole-zone collector, driven by free-zone watermarks
        self.gc = GarbageCollector(
            self, 1, 2, kind="zone-gc", unit="zone", exclusive=True
        )

    @property
    def free_units(self) -> int:
        return len(self._free)

    @property
    def retired_units(self) -> int:
        return self.zones_retired

    # -- append path ---------------------------------------------------------
    def _append(
        self,
        lpn: int,
        data: bytes | None,
        stream: int,
        expect_ppn: int | None,
        oob: dict | None = None,
    ) -> Generator:
        """Zone append: program at an open zone's write pointer, then bind.

        ``expect_ppn`` is GC's compare-and-bind: if the host overwrote the
        page mid-relocation, the fresh copy stays unbound and is reclaimed
        with its zone later.  The program completes while the slot lock is
        held, so each zone's pointer only ever advances in program order.

        Admission is **page-based**: the host never dips into one zone's
        worth of unwritten pages, so the collector can always relocate any
        victim (``valid < zone_pages``) — borrowing host open-zone space if
        no free zone remains — and every collection repays a whole zone.
        A zone-count reserve is not enough: when every full zone is 100%
        valid (zero invalid pages anywhere) the host must still be able to
        reach the remaining unwritten pages, because only its overwrites
        can create the invalid pages GC needs.
        """
        if oob is None:
            self._write_seq += 1
            oob = {"lpn": lpn, "seq": self._write_seq}
        slots = self._slots[stream]
        stalls = 0
        while True:
            if stream == self.GC or self._unwritten - self._inflight > self.zone_pages:
                for _ in range(slots):
                    slot = self._rr[stream]
                    self._rr[stream] = (slot + 1) % slots
                    done = yield from self._append_in_slot(
                        stream, slot, lpn, data, expect_ppn, oob, open_fresh=True
                    )
                    if done:
                        return None
                if stream == self.GC:
                    # No free zone for the collector: borrow remaining space
                    # in a host open zone (under that slot's lock, preserving
                    # the one-writer-per-zone program order).  The admission
                    # floor guarantees this space exists for any victim.
                    for hslot in range(self._slots[self.HOST]):
                        done = yield from self._append_in_slot(
                            self.HOST, hslot, lpn, data, expect_ppn, oob,
                            open_fresh=False,
                        )
                        if done:
                            return None
                    yield self.sim.timeout(self.flash.timing.t_erase)
                    continue
            # The host is at the collector's reserve floor, or passed it but
            # found no open slot (space sits in the GC zone): stall an erase
            # cycle while GC reclaims.  Repeated stalls against an idle
            # collector mean genuine exhaustion — but re-check after the
            # sleep: GC may have freed zones during the stall.
            self.gc.kick()
            yield self.sim.timeout(self.flash.timing.t_erase)
            stalls += 1
            if stalls >= 8 and self.gc.idle and self._host_stuck():
                raise LogicalIOError("device full: no reclaimable zones")

    _program = _append  # the core's placement hook (destage and relocation)

    def _host_stuck(self) -> bool:
        """True when a host append cannot make progress right now: below
        the collector's reserve floor, or no free zone and every host open
        zone closed.  Checked at raise time so a stall that GC resolved
        mid-sleep retries instead of failing (no lost wakeup)."""
        if self._unwritten - self._inflight <= self.zone_pages:
            return True
        if self._free:
            return False
        return all(zone is None for zone in self._open[self.HOST])

    def _append_in_slot(
        self,
        stream: int,
        slot: int,
        lpn: int,
        data: bytes | None,
        expect_ppn: int | None,
        oob: dict,
        open_fresh: bool,
    ) -> Generator:
        """Try one append under ``(stream, slot)``'s lock; True if programmed.

        ``open_fresh`` lets the slot pull a new zone from the free list;
        the GC borrow path passes False to use only already-open space.
        """
        lock = self._locks[(stream, slot)]
        with lock.request() as req:
            yield req
            if (open_fresh and stream == self.HOST
                    and self._unwritten - self._inflight <= self.zone_pages):
                # a host append passed admission before this lock wait, and
                # appends granted meanwhile may have reached the floor since
                return False
            # a slot holds a zone only while it is OPEN, so a held zone has
            # room; an empty slot opens the next free zone if allowed
            zone = self._open[stream][slot]
            if zone is None:
                if not open_fresh or not self._free:
                    return False
                zone = self._free[0]
                self._transition(zone, ZoneState.OPEN, (stream, slot))
            wp = int(self._zone_wp[zone])
            ppn = zone * self.zone_pages + wp
            self._writers[zone] += 1
            self._inflight += 1
            try:
                yield from self.ecc.encode_page(self.page_size)
                yield from self.flash.program_page(ppn, data, oob=oob)
                self._zone_wp[zone] = wp + 1
                self._unwritten -= 1
                if wp + 1 == self.zone_pages:
                    self._transition(zone, ZoneState.FULL, (stream, slot))
                if expect_ppn is None or self.page_map.lookup(lpn) == expect_ppn:
                    self.page_map.bind(lpn, ppn)
            finally:
                self._writers[zone] -= 1
                self._inflight -= 1
            self._maybe_kick_gc()
            return True

    def _erase_unit(self, zone: int) -> Generator:
        """Erase every block of a (mapping-free) zone; returns success."""
        blocks = self._unit_block_range(zone)
        for block in blocks:
            self.page_map.release_block(block)
        geo = self.flash.geometry
        for block in blocks:
            try:
                yield from self.flash.erase_block(geo.block_address(block))
            except EraseFailure:
                # grown bad block: the whole zone leaves service
                self._transition(zone, ZoneState.OFFLINE)
                self.tracer.emit(
                    self.sim.now, self.name, "zone.retired", zone=zone, block=block
                )
                return False
        self._transition(zone, ZoneState.EMPTY)
        return True

    def _transition(
        self, zone: int, to: ZoneState, slot: tuple[int, int] | None = None
    ) -> None:
        """Move ``zone`` along one lifecycle edge, keeping every structure
        that mirrors its state in step; an edge not in the table raises.
        ``slot`` is the ``(stream, slot)`` a move to OPEN enters and a move
        to FULL leaves."""
        frm = int(self._zone_state[zone])
        if (frm, to) not in _EDGES:
            raise RuntimeError(
                f"zone {zone}: illegal transition {ZoneState(frm).name} -> {to.name}"
            )
        self._zone_state[zone] = to
        if to == ZoneState.OPEN:
            self._free.remove(zone)
            self._open[slot[0]][slot[1]] = zone
        elif to == ZoneState.FULL:
            self._open[slot[0]][slot[1]] = None
        elif to == ZoneState.EMPTY:
            self._zone_wp[zone] = 0
            self._free.append(zone)
            self._unwritten += self.zone_pages
            self.zone_resets += 1
        else:
            self.zones_retired += 1

    # -- garbage collection ----------------------------------------------------
    def _choose_victim(self) -> int | None:
        # GC may borrow host open-zone space when no free zone remains, so
        # its relocation headroom is every reachable unwritten page — and
        # the host admission floor keeps one zone's worth of it in reserve.
        headroom = self._unwritten
        best = None
        best_valid = None
        for zone in np.flatnonzero(self._zone_state == ZoneState.FULL).tolist():
            if zone in self._reclaiming or self._writers[zone] != 0:
                continue
            blocks = self._unit_block_range(zone)
            valid = int(self.page_map.valid_count[blocks.start:blocks.stop].sum())
            if valid >= self.zone_pages or valid > headroom:
                continue  # nothing reclaimable, or uncompletable right now
            if best_valid is None or (valid, zone) < (best_valid, best):
                best, best_valid = zone, valid
        return best

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        counts = np.bincount(self._zone_state, minlength=len(ZoneState)).tolist()
        return {
            **super().stats(),
            **{f"zones_{state.name.lower()}": counts[state] for state in ZoneState},
            "zone_resets": self.zone_resets,
        }
