"""Garbage collection: the page FTL's victim policies and the collector
every backend runs.

Two classic policies pick the page FTL's victim block (and are compared in
the GC ablation bench):

- **Greedy** — pick the closed block with the fewest valid pages; optimal
  for uniform workloads, oblivious to block age.
- **Cost-benefit** — maximise ``(1 - u) / (2u) * age`` (Kawaguchi et al.);
  favours old, mostly-invalid blocks, separating hot and cold data.

The page FTL also performs threshold-based **static wear leveling**: when
the P/E spread across blocks exceeds ``wl_delta``, the coldest (lowest-P/E)
closed block is forcibly collected so its cold data moves and the block
rejoins the hot rotation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Protocol, Sequence

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ftl.ftl import FlashTranslationLayer, TranslationCore

__all__ = ["CostBenefitPolicy", "GarbageCollector", "GcPolicy", "GreedyPolicy"]


class GcPolicy(Protocol):
    """Victim-selection strategy."""

    name: str

    def select(self, candidates: Sequence[int], ftl: "FlashTranslationLayer") -> int:
        """Pick one block index from ``candidates`` (non-empty)."""
        ...


class GreedyPolicy:
    """Minimum-valid-pages victim selection."""

    name = "greedy"

    def select(self, candidates: Sequence[int], ftl: "FlashTranslationLayer") -> int:
        return min(candidates, key=lambda b: (ftl.page_map.valid_pages_in_block(b), b))


class CostBenefitPolicy:
    """Kawaguchi-style cost-benefit victim selection."""

    name = "cost-benefit"

    def select(self, candidates: Sequence[int], ftl: "FlashTranslationLayer") -> int:
        per_block = ftl.flash.geometry.pages_per_block
        now = ftl.sim.now

        def benefit(block: int) -> float:
            u = ftl.page_map.valid_pages_in_block(block) / per_block
            age = max(now - float(ftl.flash.program_time[block]), 1e-9)
            if u <= 0.0:
                return float("inf")  # free win: no relocation cost
            return (1.0 - u) / (2.0 * u) * age

        return max(candidates, key=lambda b: (benefit(b), -b))


class GarbageCollector:
    """The background collector every backend runs, driven by free-unit
    watermarks.

    A *unit* is the backend's reclaim granule — a block on the page FTL, a
    zone on the zoned FTL — always a run of whole erase blocks, so a page's
    unit is ``ppn // unit_pages``.  The backend kicks the collector after
    consuming space; the collector runs until the backend's free pool
    recovers to the high watermark.  Each collection relocates the victim's
    live pages, quiesces in-flight readers and writers (re-relocating any
    page a late program binds) so no read ever observes an erased page,
    then lets the backend erase the unit.  The backend chooses victims and
    erases them; ``kind`` prefixes the collector's trace records and kick
    event, ``unit`` names the victim in them.  ``exclusive`` marks a backend
    whose victim choice budgets relocation space for one collection at a
    time (the zoned FTL): there a second collection started while another
    runs raises instead of stranding both.
    """

    def __init__(
        self,
        ftl: "TranslationCore",
        low_watermark: int,
        high_watermark: int,
        kind: str = "gc",
        unit: str = "block",
        exclusive: bool = False,
    ):
        if high_watermark < low_watermark:
            raise ValueError("high_watermark must be >= low_watermark")
        self.ftl = ftl
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.kind = kind
        self.unit = unit
        self.exclusive = exclusive
        self.collections = 0
        self.pages_relocated = 0
        self.wl_migrations = 0
        self.relocation_failures = 0  # uncorrectable reads during GC (data loss)
        self.blocks_retired = 0  # erase failures (grown bad blocks)
        self._kick: Event | None = None
        self._idle = True
        self.process = ftl.sim.process(self._run(), name=f"{ftl.name}.gc")

    # -- control ----------------------------------------------------------
    def kick(self) -> None:
        """Wake the collector if it is waiting."""
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()

    @property
    def idle(self) -> bool:
        return self._idle

    # -- main loop ----------------------------------------------------------
    def _run(self) -> Generator:
        ftl = self.ftl
        while True:
            if ftl.free_units > self.low_watermark and not ftl._needs_wl():
                yield from self._wait_for_kick()
            self._idle = False
            progressed = False
            while ftl.free_units < self.high_watermark or ftl._needs_wl():
                victim = ftl._choose_victim()
                if victim is None:
                    break  # nothing reclaimable right now
                yield from self._collect(victim)
                progressed = True
            if not progressed:
                # Below the watermark but no victim (e.g. every full unit is
                # fully valid): sleep until a trim/write changes things.
                yield from self._wait_for_kick()

    def _wait_for_kick(self) -> Generator:
        self._kick = self.ftl.sim.event(name=f"{self.kind}.kick")
        self._idle = True
        yield self._kick
        self._kick = None

    def _collect(self, unit: int) -> Generator:
        """Relocate valid pages out of ``unit`` and erase it."""
        ftl = self.ftl
        if self.exclusive and ftl._reclaiming:
            busy = ", ".join(str(u) for u in sorted(ftl._reclaiming))
            raise RuntimeError(
                f"{self.unit} {unit}: collection started while {self.unit} {busy} "
                f"is being collected; this backend relocates for one collection "
                f"at a time"
            )
        if unit in ftl._reclaiming:
            return  # the scrubber got there first
        ftl._reclaiming.add(unit)
        try:
            yield from self._collect_inner(unit)
        finally:
            ftl._reclaiming.discard(unit)

    def _relocate_or_drop(self, lpn: int, old_ppn: int) -> Generator:
        """Relocate one page; an uncorrectable source read loses the data
        (the mapping is dropped and the loss recorded) rather than killing
        the collector."""
        from repro.ftl.ftl import LogicalIOError

        ftl = self.ftl
        try:
            yield from ftl.relocate(lpn, old_ppn)
            self.pages_relocated += 1
        except LogicalIOError:
            self.relocation_failures += 1
            if ftl.page_map.lookup(lpn) == old_ppn:
                ftl.page_map.unbind(lpn)
            ftl.tracer.emit(ftl.sim.now, ftl.name, f"{self.kind}.data-loss", lpn=lpn)
        return None

    def _collect_inner(self, unit: int) -> Generator:
        ftl = self.ftl
        unit_pages = ftl._unit_pages
        for lpn in ftl._unit_lpns(unit):
            old_ppn = ftl.page_map.lookup(lpn)
            if old_ppn // unit_pages != unit:
                continue  # host overwrote while we were collecting
            yield from self._relocate_or_drop(lpn, old_ppn)
        # quiesce in-flight readers and writers before the erase; any writer
        # that binds late re-validates a page, which we then relocate too
        while ftl._readers[unit] > 0 or ftl._writers[unit] > 0:
            yield ftl.sim.timeout(ftl.reader_quiesce_delay)
            for lpn in ftl._unit_lpns(unit):
                yield from self._relocate_or_drop(lpn, ftl.page_map.lookup(lpn))
        if not (yield from ftl._erase_unit(unit)):
            return
        self.collections += 1
        ftl.tracer.emit(ftl.sim.now, ftl.name, f"{self.kind}.collect", **{self.unit: unit})
