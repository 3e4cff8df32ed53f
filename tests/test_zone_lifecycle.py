"""The zoned FTL's zone lifecycle, held by a Hypothesis state machine.

One zone's state is mirrored in several structures: the state array, the
free list, the append slots, the collector's ``_reclaiming`` set, the
running ``_unwritten``/``_inflight`` counts and the flash array's per-block
write pointers.  ``ZonedFtl._transition`` is the one writer of the first
three and of the counts a state change moves.  The machine below drives a
small zoned device (``tests/test_ftl.py::make_ftl(backend="zoned")``, 12
zones of 16 pages) with host writes, trims, flushes, collector passes and
grown bad blocks, and checks after every simulator event that:

- each zone is in exactly one of free, open, full, reclaiming and offline,
  and its state entry agrees (EMPTY is free, OPEN sits in exactly one
  append slot, a reclaiming zone is FULL);
- the free list holds no duplicates and ``free_units <= zone_count``;
- ``_unwritten`` and ``_inflight`` equal their recomputed values, and the
  reset and retirement counters agree with the collector and the table;
- each zone's pointer is 0 when EMPTY, inside the zone when OPEN, at its
  end when FULL, and equals its blocks' programmed prefix in
  ``flash.write_pointer`` (skipped while the zone is being erased, and
  once it is offline, where a partial erase left some blocks blank);
- no mapped lpn points into a free or offline zone.

Budgets: the tier-1 test runs 25 examples of up to 40 steps, about 5 s on
2 cores; the ``slow`` one (``pytest -m slow``, run by the CI
``traffic-soak`` job) runs 200 examples of up to 50 steps, about 90 s.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.ftl import ZoneState
from repro.ftl.mapping import UNMAPPED
from tests.test_ftl import GEO, make_ftl

#: Events one rule may take; more means a livelock in the model.
MAX_EVENTS = 50_000
#: Grown bad blocks per run: each takes a zone offline once collected, and
#: the test device has about four zones of over-provisioning.
MAX_BAD_BLOCKS = 3


def check_zones(ftl) -> None:
    """Every zone-lifecycle invariant of the module docstring."""
    zone_pages = ftl.zone_pages
    free = list(ftl._free)
    assert len(free) == len(set(free)), f"free list holds duplicates: {free}"
    assert ftl.free_units <= ftl.zone_count
    held = [zone for zones in ftl._open.values() for zone in zones if zone is not None]
    assert len(held) == len(set(held)), f"a zone sits in two slots: {ftl._open}"

    per_block = ftl.flash.geometry.pages_per_block
    write_pointer = ftl.flash.write_pointer
    open_left = 0
    for zone in range(ftl.zone_count):
        state = ZoneState(ftl._zone_state[zone])
        homes = (zone in free, zone in held, zone in ftl._reclaiming)
        wp = int(ftl._zone_wp[zone])
        if state == ZoneState.EMPTY:
            assert homes == (True, False, False) and wp == 0, (zone, state, homes, wp)
        elif state == ZoneState.OPEN:
            assert homes == (False, True, False) and 0 <= wp < zone_pages, (
                zone, state, homes, wp)
            open_left += zone_pages - wp
        elif state == ZoneState.FULL:
            assert homes[:2] == (False, False) and wp == zone_pages, (zone, state, homes, wp)
        else:
            assert homes == (False, False, False), (zone, state, homes)
        if state == ZoneState.OFFLINE or homes[2]:
            continue
        prefix = [
            min(max(wp - i * per_block, 0), per_block)
            for i in range(ftl.zone_blocks)
        ]
        blocks = ftl._unit_block_range(zone)
        assert write_pointer[blocks.start:blocks.stop].tolist() == prefix, (
            zone, state, wp, write_pointer[blocks.start:blocks.stop].tolist())

    assert ftl._inflight == int(ftl._writers.sum())
    assert ftl._unwritten == len(free) * zone_pages + open_left
    states = np.bincount(ftl._zone_state, minlength=len(ZoneState))
    assert ftl.zones_retired == states[ZoneState.OFFLINE]
    assert ftl.zone_resets == ftl.gc.collections

    l2p = ftl.page_map.l2p
    mapped_into = ftl._zone_state[l2p[l2p != UNMAPPED] // zone_pages]
    assert not np.isin(mapped_into, (ZoneState.EMPTY, ZoneState.OFFLINE)).any(), (
        "a mapped lpn points into a free or offline zone")


class ZoneLifecycle(RuleBasedStateMachine):
    """Host traffic, GC and grown bad blocks on one small zoned device."""

    def __init__(self):
        super().__init__()
        self.sim, self.ftl = make_ftl(backend="zoned")
        self.round = 0

    def run(self, flow) -> None:
        """Run ``flow`` to its end, checking the zones after every event."""
        sim = self.sim
        proc = sim.process(flow)
        for _ in range(MAX_EVENTS):
            if proc.triggered:
                break
            sim.step()
            check_zones(self.ftl)
        else:
            raise AssertionError(f"no end after {MAX_EVENTS} events at t={sim.now}")
        if not proc._ok:  # the loop stops before the failed process is processed
            raise proc._value

    @rule(lpn=st.integers(0, 2**16), pages=st.integers(1, 24))
    def host_write(self, lpn, pages):
        """``pages`` writes from ``lpn`` on (mod the logical size); bursts
        of overwrites give the collector invalid pages to reclaim."""
        ftl = self.ftl
        self.round += 1
        payload = b"r%d" % self.round

        def flow():
            for i in range(pages):
                yield from ftl.write((lpn + i) % ftl.logical_pages, payload)

        self.run(flow())

    @rule(lpn=st.integers(0, 2**16), pages=st.integers(1, 8))
    def trim(self, lpn, pages):
        ftl = self.ftl
        self.run(ftl.trim([(lpn + i) % ftl.logical_pages for i in range(pages)]))

    @rule()
    def flush(self):
        self.run(self.ftl.flush())

    @rule(zones=st.integers(1, 3))
    def gc_pass(self, zones):
        """Have the collector reclaim until ``zones`` more zones are free
        (or nothing is reclaimable), then restore its watermark.  The
        collector does the work: its victim choice budgets relocation
        space for one collection at a time, so a second, concurrent
        collection could strand both."""
        gc = self.ftl.gc
        high = gc.high_watermark

        def flow():
            gc.high_watermark = self.ftl.free_units + zones
            gc.kick()
            yield self.sim.timeout(0)  # the woken collector runs first
            while not gc.idle:
                yield self.sim.timeout(self.ftl.flash.timing.t_erase)

        try:
            self.run(flow())
        finally:
            gc.high_watermark = high

    @precondition(lambda self: len(self.ftl.flash.failed_blocks) < MAX_BAD_BLOCKS)
    @rule(block=st.integers(0, GEO.blocks - 1))
    def grow_bad_block(self, block):
        """The block's next erase fails, taking its zone offline."""
        self.ftl.flash.mark_block_failed(block)

    @invariant()
    def zones_hold(self):
        check_zones(self.ftl)


#: A run the machine found, shrunk: host writes ``(lpn, pages)`` and grown
#: bad blocks ``(block,)``.  Three retired zones leave about one zone of
#: slack; host appends that passed admission and then waited on a slot lock
#: used to program below the collector's reserve, so the collector could not
#: relocate its victim and host and collector stalled forever.
STALL_RUN = (
    (11,), (19, 19), (36, 17), (18,), (2,), (1, 17), (93, 8), (0, 24), (0, 12),
    (110, 18), (100, 3), (0, 19), (103, 8), (65, 8), (22, 22), (11, 10), (8, 15),
    (19, 1), (51, 12), (64, 15), (0, 5), (102, 19), (75, 20), (47, 3), (111, 10),
    (0, 21),
)


def test_host_admission_is_rechecked_after_the_slot_lock_wait():
    machine = ZoneLifecycle()
    for step in STALL_RUN:
        if len(step) == 1:
            machine.grow_bad_block(*step)
        else:
            machine.host_write(*step)
    assert machine.ftl.zones_retired == 3


def test_zone_lifecycle_holds():
    run_state_machine_as_test(
        ZoneLifecycle, settings=settings(max_examples=25, stateful_step_count=40)
    )


@pytest.mark.slow
def test_zone_lifecycle_holds_deep():
    run_state_machine_as_test(
        ZoneLifecycle, settings=settings(max_examples=200, stateful_step_count=50)
    )


def test_second_zoned_collection_raises_while_one_runs():
    """The zoned victim choice budgets relocation space for one collection
    at a time, so a second collection started while the background one runs
    raises, naming both zones, instead of stranding both; the background
    collection still completes."""
    machine = ZoneLifecycle()
    for _ in range(4):
        machine.host_write(0, 24)  # overwrites leave full zones to reclaim
    machine.flush()
    sim, ftl = machine.sim, machine.ftl
    gc = ftl.gc
    gc.high_watermark = ftl.free_units + 1
    gc.kick()
    for _ in range(MAX_EVENTS):
        if ftl._reclaiming:
            break
        sim.step()
    (busy,) = ftl._reclaiming
    other = next(
        zone for zone in range(ftl.zone_count)
        if zone != busy and ftl._zone_state[zone] == ZoneState.FULL
    )
    with pytest.raises(RuntimeError, match=f"zone {other}: .* zone {busy} is being"):
        next(gc._collect(other))
    assert ftl._reclaiming == {busy}
    for _ in range(MAX_EVENTS):
        if gc.idle:
            break
        sim.step()
    assert gc.idle and not ftl._reclaiming and gc.collections == 1
    check_zones(ftl)
