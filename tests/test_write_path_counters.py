"""The write path's running counts equal the sums they replace.

Each host append reads counts that used to be recomputed per page: the
zoned backend's programs in flight (the sum of the per-zone writer counts)
and its reachable unprogrammed pages (free zones plus the rest of every
open zone), and the page backend's free-block count (the summed per-die
pools). They are now kept as integers, updated wherever their parts
change. These tests step the simulator one event at a time through
overwrite churn with trims, garbage collection, zone resets, a grown bad
block and a power-off recovery, and recompute every count after each event.
"""

from __future__ import annotations

import pytest

from repro.ftl import FlashTranslationLayer, FtlConfig, ZonedFtl
from tests.test_ftl import make_ftl
from tests.test_zoned_ftl import retire_by_churn


def recomputed(ftl) -> dict[str, int]:
    """The running counts, and the same counts summed from their parts."""
    if isinstance(ftl, ZonedFtl):
        open_left = sum(
            ftl.zone_pages - int(ftl._zone_wp[zone])
            for zones in ftl._open.values()
            for zone in zones
            if zone is not None
        )
        return {
            "inflight": (ftl._inflight, int(ftl._writers.sum())),
            "unwritten": (ftl._unwritten, len(ftl._free) * ftl.zone_pages + open_left),
        }
    alloc = ftl.allocator
    return {"free_blocks": (alloc.free_blocks, sum(len(pool) for pool in alloc.free))}


def step_checking(sim, ftl, flow) -> int:
    """Run ``flow`` to completion one event at a time, checking the counts
    after each; returns the number of events checked."""
    proc = sim.process(flow)
    events = 0
    while not proc.triggered:
        sim.step()
        events += 1
        for name, (kept, summed) in recomputed(ftl).items():
            assert kept == summed, f"{name}: kept {kept}, recomputed {summed} at t={sim.now}"
    if not proc._ok:  # the loop stops before the failed process is processed
        raise proc._value
    return events


def churn(ftl, rounds=12, working_set=20):
    for r in range(rounds):
        for lpn in range(working_set):
            yield from ftl.write(lpn, f"r{r}-p{lpn}".encode())
        if r % 3 == 2:
            yield from ftl.trim(range(0, working_set, 4))
    yield from ftl.flush()


@pytest.mark.parametrize("backend", ["page", "zoned"])
def test_counts_match_their_sums_through_churn_and_gc(backend):
    sim, ftl = make_ftl(config=FtlConfig(op_ratio=0.34, write_buffer_pages=4), backend=backend)
    assert step_checking(sim, ftl, churn(ftl)) > 1000
    assert ftl.gc.collections > 0


def test_zoned_counts_match_through_resets_and_a_retired_zone():
    sim, ftl = make_ftl(backend="zoned", zone_blocks=2)

    def flow():
        yield from churn(ftl, rounds=4)
        yield from retire_by_churn(ftl, b"retire")
        yield from churn(ftl, rounds=4)

    step_checking(sim, ftl, flow())
    assert ftl.zones_retired == 1 and ftl.zone_resets > 0


def test_page_free_count_matches_through_retirement_and_recovery():
    sim, ftl = make_ftl(config=FtlConfig(op_ratio=0.34, write_buffer_pages=4))
    flash = ftl.flash
    for block in range(0, flash.geometry.blocks, 5):
        flash.mark_block_failed(block)
    step_checking(sim, ftl, churn(ftl))
    assert ftl.gc.blocks_retired > 0

    reborn = FlashTranslationLayer(sim, flash, ftl.ecc, config=ftl.config, name="ftl2")
    step_checking(sim, reborn, reborn.recover_from_flash())
    step_checking(sim, reborn, churn(reborn, rounds=3))
