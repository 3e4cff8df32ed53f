"""The flash translation layer: the shared core and the page-mapped backend.

Both translation backends export one logical page device:

- ``read(lpn)`` — write-buffer hit, read-cache hit, or flash read + ECC
  decode (``peek(lpn)`` looks the same payload up without simulated time);
- ``write(lpn, data)`` — fast-release: completes when the data lands in the
  write buffer; background flushers destage to NAND;
- ``trim(lpns)`` — drops mappings (and buffered copies) without media work;
- ``flush()`` — barrier draining the write buffer.

:class:`TranslationCore` implements that front end, GC relocation and the
accounting once.  A backend only decides where a page is programmed, which
*unit* (a run of whole erase blocks) is reclaimed next, and how a unit is
erased.  :class:`FlashTranslationLayer` is the page-mapped backend: its unit
is one block; the zoned backend (:mod:`repro.ftl.zoned`) reclaims zones.

Concurrency model of the page backend: page allocation is synchronous and
per-``(stream, die)`` locks serialise allocate+program, so NAND's
in-order-within-block rule holds while writes still stripe across dies.
Reads hold a per-unit reader count that GC quiesces before erasing a victim.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.ecc import EccEngine, UncorrectableError
from repro.flash.package import EraseFailure, FlashArray
from repro.ftl.allocator import BlockAllocator, OutOfSpaceError
from repro.ftl.gc import CostBenefitPolicy, GarbageCollector, GcPolicy, GreedyPolicy
from repro.ftl.mapping import UNMAPPED, PageMap
from repro.ftl.write_buffer import WriteBuffer
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.sim import Resource, Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["FlashTranslationLayer", "FtlConfig", "LogicalIOError", "TranslationCore"]


class LogicalIOError(Exception):
    """Logical I/O failure: uncorrectable media error or device full."""


_POLICIES: dict[str, type[GcPolicy]] = {
    "greedy": GreedyPolicy,
    "cost-benefit": CostBenefitPolicy,
}

#: Knobs only the page backend reads (its allocator watermarks, victim
#: policy and wear levelling).
_PAGE_ONLY_KNOBS = ("gc_policy", "wl_delta", "gc_low_watermark", "gc_high_watermark")


@dataclass(frozen=True, slots=True)
class FtlConfig:
    """FTL tuning knobs.

    ``op_ratio`` is the over-provisioning fraction: exported logical
    capacity is ``(1 - op_ratio)`` of physical.  Watermarks default to one
    free block per die (low) and two per die (high).
    """

    op_ratio: float = 0.125
    write_buffer_pages: int = 256
    gc_policy: str = "greedy"
    gc_low_watermark: int | None = None
    gc_high_watermark: int | None = None
    wl_delta: int = 0
    buffer_hit_latency: float = 500e-9
    trim_latency: float = 5e-6
    reader_quiesce_delay: float = 5e-6
    scrub_interval: float | None = 60.0  # None disables the patrol scrubber
    scrub_margin: float = 0.5
    #: DRAM read cache in pages (0 = disabled).  Off by default so the
    #: calibrated experiments measure media, not cache; repeated-read
    #: workloads can opt in.
    read_cache_pages: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.op_ratio < 1.0:
            raise ValueError("op_ratio must be in (0, 1)")
        if self.gc_policy not in _POLICIES:
            raise ValueError(f"unknown gc_policy {self.gc_policy!r}; use {sorted(_POLICIES)}")
        if self.write_buffer_pages < 1:
            raise ValueError("write_buffer_pages must be >= 1")
        if self.read_cache_pages < 0:
            raise ValueError("read_cache_pages must be >= 0")

    def check_zoned(self) -> None:
        """Raise if a page-backend-only knob is set: the zoned backend would
        otherwise ignore it silently."""
        default = FtlConfig()
        knobs = [
            f"ftl.{knob}"
            for knob in _PAGE_ONLY_KNOBS
            if getattr(self, knob) != getattr(default, knob)
        ]
        if knobs:
            raise ValueError(
                f"the zoned backend does not use {', '.join(knobs)}; "
                "leave page-backend knobs at their defaults"
            )


class TranslationCore:
    """The backend-independent half of a translation layer.

    A backend maps logical pages onto *units*: runs of whole erase blocks
    (one block on the page FTL, one zone on the zoned FTL) that are filled
    in order and reclaimed whole, so a physical page's unit is
    ``ppn // unit_pages``.  The core owns the page map, the write buffer's
    destage path, the read cache, the OOB write sequence, the per-unit
    reader/writer counts, the in-flight destage and reclaim sets, the host
    counters and the ``ftl.*`` metrics.

    A backend supplies:

    - ``_program(lpn, data, stream, expect_ppn, oob=None)`` — program one
      page and bind it (compare-and-bind when ``expect_ppn`` is set);
    - ``free_units`` — the free pool the collector keeps between its
      watermarks, and ``retired_units`` — the units taken out of service;
    - ``_choose_victim()`` — the next unit to collect, or None;
    - ``_erase_unit(unit)`` — release and erase a mapping-free unit;
      returns whether it went back into service;
    - ``self.gc`` (a :class:`~repro.ftl.gc.GarbageCollector`) and
      ``self.write_buffer`` (:meth:`_start_write_buffer`), built in its own
      constructor: the order their processes spawn in is part of the
      schedule.
    """

    HOST = BlockAllocator.HOST
    GC = BlockAllocator.GC

    gc: GarbageCollector
    write_buffer: WriteBuffer

    def __init__(
        self,
        sim: Simulator,
        flash: FlashArray,
        ecc: EccEngine,
        config: FtlConfig | None,
        name: str,
        tracer: Tracer | None,
        metrics: MetricsRegistry | None,
        *,
        unit: str,
        units: int,
        unit_blocks: int,
    ):
        self.sim = sim
        self.flash = flash
        self.ecc = ecc
        self.config = config or FtlConfig()
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Exported counters and gauges read the counts kept below when the
        # registry is sampled; the per-page paths only bump their own.
        m = self.metrics
        m.counter_view("ftl.host_reads", "logical page reads served",
                       lambda: self.host_reads, device=name)
        m.counter_view("ftl.host_writes", "logical page writes accepted",
                       lambda: self.host_writes, device=name)
        m.counter_view("ftl.buffer_read_hits",
                       "reads served from the fast-release write buffer",
                       lambda: self.buffer_read_hits, device=name)
        m.counter_view("ftl.write_buffer.destages", "write-buffer pages destaged to NAND",
                       lambda: self.host_pages_programmed, device=name)
        m.gauge_view("ftl.write_amplification", "NAND programs / host programs",
                     self.write_amplification, device=name)
        m.counter_view("ftl.gc.collections", "garbage-collection unit reclaims",
                       lambda: self.gc.collections, device=name)
        m.counter_view("ftl.gc.pages_relocated", "valid pages moved by the collector",
                       lambda: self.gc.pages_relocated, device=name)
        m.gauge_view("ftl.free_blocks", "free erase blocks",
                     lambda: self.free_units * self._unit_blocks, device=name)

        geo = flash.geometry
        self.page_size = geo.page_size
        self._unit_blocks = unit_blocks
        self._unit_pages = unit_blocks * geo.pages_per_block
        covered = units * self._unit_pages
        self.logical_pages = int(covered * (1.0 - self.config.op_ratio))
        if self.logical_pages < 1:
            raise ValueError("over-provisioning leaves no logical capacity")
        slack_pages = covered - self.logical_pages
        if slack_pages < 2 * self._unit_pages:
            raise ValueError(
                f"over-provisioning slack must be at least two {unit}s "
                f"({2 * self._unit_pages} pages) for deadlock-free GC; "
                f"got {slack_pages} pages — raise op_ratio or enlarge the array"
            )
        self.page_map = PageMap(geo, self.logical_pages)
        # Reads and in-flight programs per unit: a page is allocated
        # synchronously but programmed/bound after yields, so GC must not
        # victimise or erase a unit while either count is non-zero.
        self._readers = np.zeros(units, dtype=np.int32)
        self._writers = np.zeros(units, dtype=np.int32)
        # Hot-path constants hoisted out of the per-page read/write methods
        # (config is frozen and the geometry never changes after build).
        self._buffer_hit_latency = self.config.buffer_hit_latency
        self._read_cache_pages = self.config.read_cache_pages
        self.reader_quiesce_delay = self.config.reader_quiesce_delay

        self._destaging: set[int] = set()
        # units being reclaimed right now (GC victim, scrub refresh or zone
        # reset) — prevents two reclaimers double-erasing one unit
        self._reclaiming: set[int] = set()
        # monotonically increasing write sequence stamped into each page's
        # OOB area; power-off recovery replays "latest sequence wins"
        self._write_seq = 0
        # optional LRU read cache (controller DRAM)
        self._read_cache: "OrderedDict[int, bytes | None]" = OrderedDict()

        # statistics
        self.host_reads = 0
        self.host_writes = 0
        self.host_pages_programmed = 0
        self.buffer_read_hits = 0
        self.read_cache_hits = 0
        self.trims = 0
        self.uncorrectable_reads = 0

    def _start_write_buffer(self, workers: int) -> WriteBuffer:
        """The fast-release buffer over :meth:`_destage` (spawns its
        flushers now)."""
        return WriteBuffer(
            self.sim,
            self.config.write_buffer_pages,
            destage=self._destage,
            name=f"{self.name}.wbuf",
            workers=workers,
        )

    # -- capacity ------------------------------------------------------------
    @property
    def logical_capacity_bytes(self) -> int:
        return self.logical_pages * self.page_size

    def write_amplification(self) -> float:
        """Total NAND programs / host-initiated programs."""
        if self.host_pages_programmed == 0:
            return 0.0
        return self.flash.stats.programs / self.host_pages_programmed

    # -- units -----------------------------------------------------------------
    def _unit_block_range(self, unit: int) -> range:
        first = unit * self._unit_blocks
        return range(first, first + self._unit_blocks)

    def _unit_lpns(self, unit: int):
        """Logical pages whose current copy lives in ``unit``; each block's
        list is taken when the iteration reaches that block."""
        for block in self._unit_block_range(unit):
            yield from self.page_map.valid_lpns_in_block(block)

    def _needs_wl(self) -> bool:
        """Whether the collector must run for wear levelling (page only)."""
        return False

    def _maybe_kick_gc(self) -> None:
        if self.free_units <= self.gc.low_watermark:
            self.gc.kick()

    # -- logical operations -----------------------------------------------------
    def read(self, lpn: int) -> Generator:
        """Read one logical page; returns ``bytes | None`` (None = unwritten/
        trimmed, reads as empty)."""
        self._check_lpn(lpn)
        self.host_reads += 1
        hit, data = self.write_buffer.peek(lpn)
        if hit:
            self.buffer_read_hits += 1
            yield self.sim.timeout(self._buffer_hit_latency)
            return data
        if self._read_cache_pages and lpn in self._read_cache:
            self._read_cache.move_to_end(lpn)
            self.read_cache_hits += 1
            yield self.sim.timeout(self._buffer_hit_latency)
            return self._read_cache[lpn]
        ppn = self.page_map.lookup(lpn)
        if ppn == UNMAPPED:
            yield self.sim.timeout(self._buffer_hit_latency)
            return None
        unit = ppn // self._unit_pages
        self._readers[unit] += 1
        try:
            data, errors = yield from self.flash.read_page(ppn)
            try:
                yield from self.ecc.decode_page(self.page_size, errors)
            except UncorrectableError as exc:
                self.uncorrectable_reads += 1
                raise LogicalIOError(f"uncorrectable read at lpn {lpn}") from exc
        finally:
            self._readers[unit] -= 1
        if self._read_cache_pages:
            self._cache_insert(lpn, data)
        return data

    def peek(self, lpn: int) -> bytes | None:
        """The payload :meth:`read` would return now, looked up in the same
        order (write buffer, read cache, page map) without simulated time,
        counters or cache updates."""
        hit, data = self.write_buffer.peek(lpn)
        if hit:
            return data
        if lpn in self._read_cache:
            return self._read_cache[lpn]
        ppn = self.page_map.lookup(lpn)
        if ppn == UNMAPPED:
            return None
        return self.flash.stored_page(ppn)

    def _cache_insert(self, lpn: int, data: bytes | None) -> None:
        cache = self._read_cache
        cache[lpn] = data
        cache.move_to_end(lpn)
        while len(cache) > self._read_cache_pages:
            cache.popitem(last=False)

    def write(self, lpn: int, data: bytes | None) -> Generator:
        """Write one logical page (fast-release: returns on buffer insert)."""
        self._check_lpn(lpn)
        if data is not None and len(data) > self.page_size:
            raise ValueError(f"payload {len(data)}B exceeds page size {self.page_size}B")
        self.host_writes += 1
        self._read_cache.pop(lpn, None)  # never serve stale data post-destage
        yield from self.write_buffer.put(lpn, data)
        return None

    def trim(self, lpns: list[int] | range) -> Generator:
        """Drop mappings for a batch of logical pages."""
        for lpn in lpns:
            self._check_lpn(lpn)
        yield self.sim.timeout(self.config.trim_latency)
        for lpn in lpns:
            self.write_buffer.discard(lpn)
            self._read_cache.pop(lpn, None)
            # A destage for this lpn may be in flight; its bind would
            # resurrect the mapping, so wait it out before unbinding.
            while lpn in self._destaging:
                yield self.sim.timeout(self.reader_quiesce_delay)
            self.page_map.unbind(lpn)
            self.trims += 1
        self.gc.kick()
        return None

    def flush(self) -> Generator:
        """Barrier: all buffered writes durable on flash."""
        yield from self.write_buffer.flush()
        return None

    # -- internal program paths --------------------------------------------------
    def _destage(self, lpn: int, data: bytes | None) -> Generator:
        self._destaging.add(lpn)
        try:
            yield from self._program(lpn, data, stream=self.HOST, expect_ppn=None)
        finally:
            self._destaging.discard(lpn)
        self.host_pages_programmed += 1

    def relocate(self, lpn: int, old_ppn: int) -> Generator:
        """GC relocation: read the valid copy, program it via the GC stream.

        The source page's OOB stamp is carried over unchanged, so a
        relocated copy never outranks a concurrent host write of the same
        lpn during power-off recovery.
        """
        data, errors = yield from self.flash.read_page(old_ppn)
        try:
            yield from self.ecc.decode_page(self.page_size, errors)
        except UncorrectableError as exc:
            raise LogicalIOError(f"uncorrectable GC read at lpn {lpn}") from exc
        oob = self.flash.page_oob(old_ppn)
        yield from self._program(lpn, data, stream=self.GC, expect_ppn=old_ppn, oob=oob)
        return None

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """The FTL's one snapshot, read by SMART (``NvmeController.
        smart_log``), the backend cells and the benchmark.  Space is counted
        in erase blocks on both backends; a backend adds only the keys it
        alone has."""
        return {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "host_pages_programmed": self.host_pages_programmed,
            "buffer_read_hits": self.buffer_read_hits,
            "buffer_write_hits": self.write_buffer.hits,
            "trims": self.trims,
            "gc_collections": self.gc.collections,
            "gc_pages_relocated": self.gc.pages_relocated,
            "wl_migrations": self.gc.wl_migrations,
            "write_amplification": self.write_amplification(),
            "free_blocks": self.free_units * self._unit_blocks,
            "bad_blocks": self.retired_units * self._unit_blocks,
            "uncorrectable_reads": self.uncorrectable_reads,
        }


class FlashTranslationLayer(TranslationCore):
    """Page-mapped backend: per-die write frontiers, single-block GC victims
    chosen by a policy, static wear levelling, a patrol scrubber and
    power-off recovery from the OOB stamps."""

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
        name: str = "ftl",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        geo = flash.geometry
        super().__init__(
            sim, flash, ecc, config, name, tracer, metrics,
            unit="block", units=geo.blocks, unit_blocks=1,
        )
        self.allocator = BlockAllocator(flash, streams=2)
        self._die_locks = {
            (stream, die): Resource(sim, capacity=1, name=f"{name}.s{stream}d{die}")
            for stream in (self.HOST, self.GC)
            for die in range(geo.dies)
        }
        self._rr_die = {self.HOST: 0, self.GC: 0}

        low = self.config.gc_low_watermark
        high = self.config.gc_high_watermark
        if low is None:
            low = geo.dies
        if high is None:
            high = max(low + 1, 2 * geo.dies)
        self.policy = _POLICIES[self.config.gc_policy]()
        self.gc = GarbageCollector(self, low, high)
        # destage bandwidth scales with dies
        self.write_buffer = self._start_write_buffer(workers=max(4, geo.dies))

        from repro.ftl.scrubber import PatrolScrubber

        self.scrubber = PatrolScrubber(
            self,
            interval=self.config.scrub_interval or 60.0,
            margin=self.config.scrub_margin,
            enabled=self.config.scrub_interval is not None,
        )

    @property
    def free_units(self) -> int:
        return self.allocator.free_blocks

    @property
    def retired_units(self) -> int:
        return len(self.allocator.retired)

    # -- placement -------------------------------------------------------------
    def _program(
        self,
        lpn: int,
        data: bytes | None,
        stream: int,
        expect_ppn: int | None,
        oob: dict | None = None,
    ) -> Generator:
        """Allocate + program + bind, honouring per-(stream, die) ordering.

        ``expect_ppn`` implements GC's compare-and-bind: if the mapping moved
        (host overwrote during relocation) the fresh copy is left unbound —
        it is reclaimed as garbage on the GC block's next collection.
        """
        dies = self.flash.geometry.dies
        if oob is None:
            self._write_seq += 1
            oob = {"lpn": lpn, "seq": self._write_seq}
        stalls = 0
        while True:
            for _ in range(dies):
                die = self._rr_die[stream]
                self._rr_die[stream] = (die + 1) % dies
                lock = self._die_locks[(stream, die)]
                with lock.request() as req:
                    yield req
                    try:
                        ppn = self.allocator.allocate_on_die(stream, die)
                    except OutOfSpaceError:
                        continue
                    block_index = ppn // self._unit_pages
                    self._writers[block_index] += 1
                    try:
                        yield from self.ecc.encode_page(self.page_size)
                        yield from self.flash.program_page(ppn, data, oob=oob)
                        if expect_ppn is None or self.page_map.lookup(lpn) == expect_ppn:
                            self.page_map.bind(lpn, ppn)
                    finally:
                        self._writers[block_index] -= 1
                    self._maybe_kick_gc()
                    return None
            # Host admission control: only the GC reserve remains, so stall
            # for an erase cycle while the collector reclaims space.  With
            # >= 2 blocks of OP slack (enforced at construction) the
            # collector always makes progress, so repeated stalls with an
            # idle collector mean the model was driven beyond capacity.
            self.gc.kick()
            yield self.sim.timeout(self.flash.timing.t_erase)
            stalls += 1
            if stalls >= 8 and self.gc.idle:
                raise LogicalIOError("device full: no reclaimable space")

    # -- reclaim ---------------------------------------------------------------
    def _needs_wl(self) -> bool:
        wl_delta = self.config.wl_delta
        if wl_delta <= 0:
            return False
        low, high, _ = self.allocator.wear_spread()
        return high - low > wl_delta

    def _choose_victim(self) -> int | None:
        candidates = self.allocator.closed_blocks()
        if not candidates:
            return None
        if self._needs_wl():
            # static wear levelling: force the coldest closed block back
            # into the hot rotation
            pe = self.flash.pe_cycles
            coldest = min(candidates, key=lambda b: (int(pe[b]), b))
            low, high, _ = self.allocator.wear_spread()
            if high - int(pe[coldest]) > self.config.wl_delta:
                self.gc.wl_migrations += 1
                return coldest
        # A victim is only worth starting if (a) it has reclaimable space
        # (collecting a fully valid block wastes a P/E cycle) and (b) its
        # valid pages fit in the space we can write to right now — starting
        # an uncompletable collection would livelock the device.
        # Only count space the GC stream alone controls (its frontiers plus
        # the free pool, which includes the GC reserve): host-visible space
        # could be consumed concurrently and must not enter the feasibility
        # decision.
        per_block = self._unit_pages
        available = (
            self.allocator.free_blocks * per_block
            + self.allocator.frontier_space(self.GC)
        )
        valid = self.page_map.valid_pages_in_block
        reclaimable = [
            b
            for b in candidates
            if valid(b) < per_block
            and valid(b) <= available
            and self._writers[b] == 0
            and b not in self._reclaiming
        ]
        if not reclaimable:
            return None
        return self.policy.select(reclaimable, self)

    def _erase_unit(self, block_index: int) -> Generator:
        self.page_map.release_block(block_index)
        try:
            yield from self.flash.erase_block(self.flash.geometry.block_address(block_index))
        except EraseFailure:
            # grown bad block: take it out of service instead of reusing it
            self.allocator.retire_block(block_index)
            self.gc.blocks_retired += 1
            self.tracer.emit(self.sim.now, self.name, "gc.block-retired", block=block_index)
            return False
        self.allocator.release_block(block_index)
        return True

    # -- power-off recovery ------------------------------------------------------
    def recover_from_flash(self) -> Generator:
        """Sudden-power-off recovery (SPOR): rebuild the logical state of a
        *fresh* FTL from the media's OOB stamps.

        Real drives replay exactly this on boot: scan every programmed
        page's spare area, keep the highest write sequence per logical page,
        and mark partially-written blocks closed (their tail pages are
        wasted; GC reclaims them).  Anything that was only in the (volatile)
        write buffer at power-cut time is gone — that is the semantics of
        an unflushed write.

        Call on a newly constructed FTL over a flash array that carries a
        previous life's data.  The scan costs simulated time (one array
        read per programmed page, pipelined per die).
        """
        from repro.flash.package import PageState

        geo = self.flash.geometry
        if self.page_map.mapped_logical_pages():
            raise RuntimeError("recover_from_flash() requires a fresh FTL")

        # 1. charge the scan cost: tR per programmed page, parallel per die
        programmed = int((self.flash.page_state == PageState.PROGRAMMED).sum())
        pages_per_die = -(-programmed // geo.dies) if programmed else 0
        yield self.sim.timeout(pages_per_die * self.flash.timing.t_read)

        # 2. latest-sequence-wins over all OOB stamps
        best: dict[int, tuple[int, int]] = {}  # lpn -> (seq, ppn)
        for ppn in range(geo.pages):
            if self.flash.page_state[ppn] != PageState.PROGRAMMED:
                continue
            oob = self.flash._oob.get(ppn)
            if not oob or "lpn" not in oob:
                continue
            lpn, seq = int(oob["lpn"]), int(oob["seq"])
            if lpn >= self.logical_pages:
                continue  # stale stamp from a larger previous namespace
            if lpn not in best or (seq, ppn) > best[lpn]:
                best[lpn] = (seq, ppn)
        for lpn, (_seq, ppn) in best.items():
            self.page_map.bind(lpn, ppn)
        self._write_seq = max((seq for seq, _ in best.values()), default=0)

        # 3. rebuild the free pool: only fully-erased blocks are free
        for block_index in range(geo.blocks):
            if int(self.flash.write_pointer[block_index]) > 0:
                self.allocator.mark_in_use(block_index)
        # 4. re-retire known-bad blocks (persisted bad-block table)
        for block_index in self.flash.failed_blocks:
            if int(self.flash.write_pointer[block_index]) > 0:
                self.allocator.retire_block(block_index)
        self.gc.kick()
        self.tracer.emit(
            self.sim.now, self.name, "ftl.recovered",
            mapped=len(best), seq=self._write_seq,
        )
        return len(best)

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        return {**super().stats(), "scrub_refreshes": self.scrubber.blocks_refreshed}
