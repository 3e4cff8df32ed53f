"""Zoned (ZNS-style) translation backend.

:class:`ZonedFtl` exports the same logical page device as the page-mapped
FTL — so every consumer (NVMe controller, ISPS flash access driver,
staging, objstore) runs unmodified — but organises the media as
**zones**: fixed groups of whole erase blocks that admit only sequential
writes and are reclaimed by whole-zone reset.

Semantics modeled:

- **zone-append allocation** — host writes are out-of-place appends at the
  write pointer of an open zone; up to ``max_open_zones`` host zones accept
  appends concurrently (one in-flight program per zone, so the NAND array's
  in-order-within-block rule holds by construction);
- **write-pointer tracking** — one monotone pointer per zone, advancing
  from 0 to ``zone_pages`` and returning to 0 only through a reset;
- **explicit zone reset** — :meth:`reset_zone` drops a zone's mappings and
  erases all its blocks (the destructive host-side operation);
- **whole-zone GC with copy-forward** — when free zones run low the
  collector picks the full zone with the fewest valid pages, appends every
  live page into its own GC zone (carrying the original OOB stamp), then
  resets the victim;
- **zone-state telemetry** — empty/open/full/offline counts, per-zone
  write pointers, reset and retirement counters (:meth:`zone_report`).

Timing and error behaviour reuse the existing flash/ECC models untouched:
program/erase costs, retention-driven bit errors, grown bad blocks (an
erase failure during reset takes the whole zone offline).
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Generator

import numpy as np

from repro.ecc import EccEngine, UncorrectableError
from repro.flash.package import EraseFailure, FlashArray
from repro.ftl.ftl import FtlConfig, LogicalIOError
from repro.ftl.mapping import UNMAPPED, PageMap
from repro.ftl.write_buffer import WriteBuffer
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.sim import Event, Resource, Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["ZoneState", "ZonedFtl"]


class ZoneState(IntEnum):
    EMPTY = 0
    OPEN = 1
    FULL = 2
    OFFLINE = 3  # grown bad block inside the zone: out of service


class ZonedFtl:
    """Logical page device over zones of a :class:`FlashArray`.

    ``zone_blocks`` whole erase blocks form one zone (trailing blocks that
    do not fill a zone are left unused); ``max_open_zones`` bounds the host
    append parallelism.  Over-provisioning, write-buffer size, and latency
    knobs come from the shared :class:`~repro.ftl.ftl.FtlConfig`.
    """

    HOST = 0
    GC = 1

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
        self.sim = sim
        self.flash = flash
        self.ecc = ecc
        self.config = config or FtlConfig()
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

        geo = flash.geometry
        self.zone_blocks = zone_blocks
        self.zone_pages = zone_blocks * geo.pages_per_block
        self.zone_count = geo.blocks // zone_blocks
        if self.zone_count < 3:
            raise ValueError(
                f"geometry yields {self.zone_count} zones of {zone_blocks} "
                "blocks; need >= 3 (one open, one GC, one free)"
            )
        covered = self.zone_count * self.zone_pages
        self.logical_pages = int(covered * (1.0 - self.config.op_ratio))
        if self.logical_pages < 1:
            raise ValueError("over-provisioning leaves no logical capacity")
        if covered - self.logical_pages < 2 * self.zone_pages:
            raise ValueError(
                "over-provisioning slack must be at least two zones "
                f"({2 * self.zone_pages} pages) for deadlock-free zone GC; "
                f"got {covered - self.logical_pages} pages — raise op_ratio "
                "or shrink zone_blocks"
            )
        self.page_map = PageMap(geo, self.logical_pages)

        # zone state
        self._zone_state = np.full(self.zone_count, ZoneState.EMPTY, dtype=np.uint8)
        self._zone_wp = np.zeros(self.zone_count, dtype=np.int32)
        self._readers = np.zeros(self.zone_count, dtype=np.int32)
        self._writers = np.zeros(self.zone_count, dtype=np.int32)
        self._free: deque[int] = deque(range(self.zone_count))

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

        self._buffer_hit_latency = self.config.buffer_hit_latency
        self.reader_quiesce_delay = self.config.reader_quiesce_delay

        self.write_buffer = WriteBuffer(
            sim,
            self.config.write_buffer_pages,
            destage=self._destage,
            name=f"{name}.wbuf",
            workers=max(4, max_open_zones),
        )

        self._destaging: set[int] = set()
        self._reclaiming: set[int] = set()
        self._write_seq = 0

        # statistics
        self.host_reads = 0
        self.host_writes = 0
        self.host_pages_programmed = 0
        self.buffer_read_hits = 0
        self.trims = 0
        self.uncorrectable_reads = 0
        self.gc_collections = 0
        self.gc_pages_relocated = 0
        self.relocation_failures = 0
        self.zone_resets = 0
        self.zones_retired = 0

        # whole-zone collector, driven by free-zone watermarks
        self._gc_low = 1
        self._gc_high = 2
        self._gc_kick: Event | None = None
        self._gc_idle = True
        self._gc_process = sim.process(self._gc_run(), name=f"{name}.gc")

    # -- capacity ------------------------------------------------------------
    @property
    def logical_capacity_bytes(self) -> int:
        return self.logical_pages * self.flash.geometry.page_size

    @property
    def page_size(self) -> int:
        return self.flash.geometry.page_size

    def write_amplification(self) -> float:
        if self.host_pages_programmed == 0:
            return 0.0
        return self.flash.stats.programs / self.host_pages_programmed

    # -- zone accessors ------------------------------------------------------
    def zone_state(self, zone: int) -> ZoneState:
        return ZoneState(int(self._zone_state[zone]))

    def write_pointer(self, zone: int) -> int:
        return int(self._zone_wp[zone])

    def _zone_block_range(self, zone: int) -> range:
        start = zone * self.zone_blocks
        return range(start, start + self.zone_blocks)

    def _zone_valid_pages(self, zone: int) -> int:
        return sum(
            self.page_map.valid_pages_in_block(block)
            for block in self._zone_block_range(zone)
        )

    # -- logical operations --------------------------------------------------
    def read(self, lpn: int) -> Generator:
        """Read one logical page; ``bytes | None`` (None = unwritten)."""
        self._check_lpn(lpn)
        self.host_reads += 1
        hit, data = self.write_buffer.peek(lpn)
        if hit:
            self.buffer_read_hits += 1
            yield self.sim.timeout(self._buffer_hit_latency)
            return data
        ppn = self.page_map.lookup(lpn)
        if ppn == UNMAPPED:
            yield self.sim.timeout(self._buffer_hit_latency)
            return None
        geo = self.flash.geometry
        zone = ppn // self.zone_pages
        self._readers[zone] += 1
        try:
            result = yield from self.flash.read_page(geo.page_address(ppn))
            try:
                yield from self.ecc.decode_page(geo.page_size, result.raw_bit_errors)
            except UncorrectableError as exc:
                self.uncorrectable_reads += 1
                raise LogicalIOError(f"uncorrectable read at lpn {lpn}") from exc
        finally:
            self._readers[zone] -= 1
        return result.data

    def write(self, lpn: int, data: bytes | None) -> Generator:
        """Write one logical page (fast-release: returns on buffer insert)."""
        self._check_lpn(lpn)
        if data is not None and len(data) > self.page_size:
            raise ValueError(f"payload {len(data)}B exceeds page size {self.page_size}B")
        self.host_writes += 1
        yield from self.write_buffer.put(lpn, data)
        return None

    def trim(self, lpns: "list[int] | range") -> Generator:
        for lpn in lpns:
            self._check_lpn(lpn)
        yield self.sim.timeout(self.config.trim_latency)
        for lpn in lpns:
            self.write_buffer.discard(lpn)
            while lpn in self._destaging:
                yield self.sim.timeout(self.config.reader_quiesce_delay)
            self.page_map.unbind(lpn)
            self.trims += 1
        self._kick_gc()
        return None

    def flush(self) -> Generator:
        yield from self.write_buffer.flush()
        return None

    # -- append path ---------------------------------------------------------
    def _destage(self, lpn: int, data: bytes | None) -> Generator:
        self._destaging.add(lpn)
        try:
            yield from self._append(lpn, data, stream=self.HOST, expect_ppn=None)
        finally:
            self._destaging.discard(lpn)
        self.host_pages_programmed += 1

    def _unwritten_pages(self) -> int:
        """Unprogrammed pages the streams can still reach: free zones plus
        the remaining space of every open zone (host and GC)."""
        pages = len(self._free) * self.zone_pages
        for zones in self._open.values():
            for zone in zones:
                if zone is not None:
                    pages += self.zone_pages - int(self._zone_wp[zone])
        return pages

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
            if stream == self.HOST:
                inflight = int(self._writers.sum())
                if self._unwritten_pages() - inflight <= self.zone_pages:
                    # collector reserve floor reached: stall an erase cycle
                    # while GC reclaims.  Repeated stalls against an idle
                    # collector mean genuine exhaustion — but re-check after
                    # the sleep: GC may have freed zones during the stall.
                    self._kick_gc()
                    yield self.sim.timeout(self.flash.timing.t_erase)
                    stalls += 1
                    if stalls >= 8 and self._gc_idle and self._host_stuck():
                        raise LogicalIOError("device full: no reclaimable zones")
                    continue
            for _ in range(slots):
                slot = self._rr[stream]
                self._rr[stream] = (slot + 1) % slots
                done = yield from self._append_in_slot(
                    stream, slot, lpn, data, expect_ppn, oob, open_fresh=True
                )
                if done:
                    return None
            if stream == self.GC:
                # No free zone for the collector: borrow remaining space in
                # a host open zone (under that slot's lock, preserving the
                # one-writer-per-zone program order).  The admission floor
                # above guarantees this space exists for any chosen victim.
                for hslot in range(self._slots[self.HOST]):
                    done = yield from self._append_in_slot(
                        self.HOST, hslot, lpn, data, expect_ppn, oob,
                        open_fresh=False,
                    )
                    if done:
                        return None
                yield self.sim.timeout(self.flash.timing.t_erase)
                continue
            # Host passed admission but found no open slot (space sits in
            # the GC zone): wait for the collector to free a zone.
            self._kick_gc()
            yield self.sim.timeout(self.flash.timing.t_erase)
            stalls += 1
            if stalls >= 8 and self._gc_idle and self._host_stuck():
                raise LogicalIOError("device full: no reclaimable zones")

    def _host_stuck(self) -> bool:
        """True when a host append cannot make progress right now: below
        the collector's reserve floor, or no free zone and every host open
        zone closed.  Checked at raise time so a stall that GC resolved
        mid-sleep retries instead of failing (no lost wakeup)."""
        inflight = int(self._writers.sum())
        if self._unwritten_pages() - inflight <= self.zone_pages:
            return True
        if self._free:
            return False
        return all(
            zone is None or int(self._zone_wp[zone]) >= self.zone_pages
            for zone in self._open[self.HOST]
        )

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
        geo = self.flash.geometry
        lock = self._locks[(stream, slot)]
        with lock.request() as req:
            yield req
            zone = self._slot_zone(stream, slot, open_fresh=open_fresh)
            if zone is None:
                return False
            wp = int(self._zone_wp[zone])
            ppn = zone * self.zone_pages + wp
            self._writers[zone] += 1
            try:
                yield from self.ecc.encode_page(geo.page_size)
                yield from self.flash.program_page(
                    geo.page_address(ppn), data, oob=oob
                )
                self._zone_wp[zone] = wp + 1
                if wp + 1 == self.zone_pages:
                    self._zone_state[zone] = ZoneState.FULL
                    self._open[stream][slot] = None
                if expect_ppn is None or self.page_map.lookup(lpn) == expect_ppn:
                    self.page_map.bind(lpn, ppn)
            finally:
                self._writers[zone] -= 1
            if len(self._free) <= self._gc_low:
                self._kick_gc()
            return True

    def _slot_zone(self, stream: int, slot: int, open_fresh: bool = True) -> int | None:
        """The slot's open zone, opening a fresh one when needed/allowed."""
        zone = self._open[stream][slot]
        if zone is not None and int(self._zone_wp[zone]) < self.zone_pages:
            return zone
        if not open_fresh:
            return None
        zone = self._free.popleft() if self._free else None
        self._open[stream][slot] = zone
        if zone is not None:
            self._zone_state[zone] = ZoneState.OPEN
        return zone

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    # -- zone reset ----------------------------------------------------------
    def reset_zone(self, zone: int) -> Generator:
        """Explicit host-side zone reset: drop the zone's data and erase it.

        Destructive by design (ZNS reset semantics): any logical page still
        mapped into the zone reads as unwritten afterwards.  Open-slot and
        reclaiming zones are refused — close or let GC finish first.
        """
        if not 0 <= zone < self.zone_count:
            raise ValueError(f"zone {zone} out of range [0, {self.zone_count})")
        for stream, zones in self._open.items():
            if zone in zones:
                raise ValueError(f"zone {zone} is open for appends; cannot reset")
        if zone in self._reclaiming or self._zone_state[zone] == ZoneState.OFFLINE:
            raise ValueError(f"zone {zone} is being reclaimed or offline")
        self._reclaiming.add(zone)
        try:
            while self._readers[zone] > 0 or self._writers[zone] > 0:
                yield self.sim.timeout(self.reader_quiesce_delay)
            for block in self._zone_block_range(zone):
                for lpn in self.page_map.valid_lpns_in_block(block):
                    self.page_map.unbind(lpn)
            yield from self._erase_zone(zone)
        finally:
            self._reclaiming.discard(zone)
        return None

    def _erase_zone(self, zone: int) -> Generator:
        """Erase every block of a (mapping-free) zone; returns success."""
        for block in self._zone_block_range(zone):
            self.page_map.release_block(block)
        geo = self.flash.geometry
        for block in self._zone_block_range(zone):
            try:
                yield from self.flash.erase_block(geo.block_address(block))
            except EraseFailure:
                # grown bad block: the whole zone leaves service
                self._zone_state[zone] = ZoneState.OFFLINE
                self.zones_retired += 1
                self.tracer.emit(
                    self.sim.now, self.name, "zone.retired", zone=zone, block=block
                )
                return False
        self._zone_wp[zone] = 0
        self._zone_state[zone] = ZoneState.EMPTY
        self._free.append(zone)
        self.zone_resets += 1
        return True

    # -- garbage collection ----------------------------------------------------
    def _kick_gc(self) -> None:
        if self._gc_kick is not None and not self._gc_kick.triggered:
            self._gc_kick.succeed()

    def _gc_run(self) -> Generator:
        while True:
            if len(self._free) > self._gc_low:
                yield from self._wait_for_kick()
            self._gc_idle = False
            progressed = False
            while len(self._free) < self._gc_high:
                victim = self._choose_victim()
                if victim is None:
                    break
                yield from self._collect(victim)
                progressed = True
            if not progressed:
                yield from self._wait_for_kick()

    def _wait_for_kick(self) -> Generator:
        self._gc_kick = self.sim.event(name="zone-gc.kick")
        self._gc_idle = True
        yield self._gc_kick
        self._gc_kick = None

    def _choose_victim(self) -> int | None:
        # GC may borrow host open-zone space when no free zone remains, so
        # its relocation headroom is every reachable unwritten page — and
        # the host admission floor keeps one zone's worth of it in reserve.
        headroom = self._unwritten_pages()
        best = None
        best_valid = None
        for zone in range(self.zone_count):
            if self._zone_state[zone] != ZoneState.FULL:
                continue
            if zone in self._reclaiming or self._writers[zone] != 0:
                continue
            valid = self._zone_valid_pages(zone)
            if valid >= self.zone_pages or valid > headroom:
                continue  # nothing reclaimable, or uncompletable right now
            if best_valid is None or (valid, zone) < (best_valid, best):
                best, best_valid = zone, valid
        return best

    def _collect(self, zone: int) -> Generator:
        if zone in self._reclaiming:
            return
        self._reclaiming.add(zone)
        try:
            yield from self._collect_inner(zone)
        finally:
            self._reclaiming.discard(zone)

    def _collect_inner(self, zone: int) -> Generator:
        """Copy-forward every live page of ``zone``, then reset it."""
        for block in self._zone_block_range(zone):
            for lpn in self.page_map.valid_lpns_in_block(block):
                old_ppn = self.page_map.lookup(lpn)
                if old_ppn // self.zone_pages != zone:
                    continue  # host overwrote while we were collecting
                yield from self._relocate_or_drop(lpn, old_ppn)
        # quiesce in-flight readers before the erase; a late host bind
        # re-validates a page, which the re-scan relocates too
        while self._readers[zone] > 0 or self._writers[zone] > 0:
            yield self.sim.timeout(self.reader_quiesce_delay)
            for block in self._zone_block_range(zone):
                for lpn in self.page_map.valid_lpns_in_block(block):
                    yield from self._relocate_or_drop(lpn, self.page_map.lookup(lpn))
        ok = yield from self._erase_zone(zone)
        if ok:
            self.gc_collections += 1
            self.tracer.emit(self.sim.now, self.name, "zone-gc.collect", zone=zone)

    def _relocate_or_drop(self, lpn: int, old_ppn: int) -> Generator:
        """Copy one live page forward; an uncorrectable source read loses
        the page (recorded) rather than killing the collector."""
        geo = self.flash.geometry
        addr = geo.page_address(old_ppn)
        try:
            result = yield from self.flash.read_page(addr)
            yield from self.ecc.decode_page(geo.page_size, result.raw_bit_errors)
        except UncorrectableError:
            self.relocation_failures += 1
            if self.page_map.lookup(lpn) == old_ppn:
                self.page_map.unbind(lpn)
            self.tracer.emit(self.sim.now, self.name, "zone-gc.data-loss", lpn=lpn)
            return None
        oob = self.flash.page_oob(addr)
        yield from self._append(
            lpn, result.data, stream=self.GC, expect_ppn=old_ppn, oob=oob
        )
        self.gc_pages_relocated += 1
        return None

    # -- reporting -------------------------------------------------------------
    def zone_report(self) -> dict:
        """Zone-state telemetry: counts per state plus lifetime counters."""
        states = [int(s) for s in self._zone_state]
        return {
            "zones": self.zone_count,
            "zone_blocks": self.zone_blocks,
            "zone_pages": self.zone_pages,
            "empty": states.count(ZoneState.EMPTY),
            "open": states.count(ZoneState.OPEN),
            "full": states.count(ZoneState.FULL),
            "offline": states.count(ZoneState.OFFLINE),
            "free": len(self._free),
            "resets": self.zone_resets,
            "retired": self.zones_retired,
            "max_write_pointer": int(self._zone_wp.max()),
        }

    def stats(self) -> dict[str, float]:
        report = self.zone_report()
        return {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "host_pages_programmed": self.host_pages_programmed,
            "buffer_read_hits": self.buffer_read_hits,
            "buffer_write_hits": self.write_buffer.hits,
            "trims": self.trims,
            "gc_collections": self.gc_collections,
            "gc_pages_relocated": self.gc_pages_relocated,
            "wl_migrations": 0,
            "write_amplification": self.write_amplification(),
            "free_blocks": len(self._free) * self.zone_blocks,
            "uncorrectable_reads": self.uncorrectable_reads,
            "scrub_refreshes": 0,
            "zones_empty": report["empty"],
            "zones_open": report["open"],
            "zones_full": report["full"],
            "zones_offline": report["offline"],
            "zone_resets": self.zone_resets,
        }

    def health_stats(self) -> dict[str, float]:
        return {
            "available_spare": len(self._free) * self.zone_blocks,
            "bad_blocks": self.zones_retired * self.zone_blocks,
            "gc_collections": self.gc_collections,
            "scrub_refreshes": 0,
        }
