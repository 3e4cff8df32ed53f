"""Unit tests for the block allocator and write frontiers."""

import pytest

from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.flash.geometry import BlockAddress
from repro.ftl import BlockAllocator, OutOfSpaceError
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=3, pages_per_block=4,
    page_size=512,
)


def make_allocator():
    sim = Simulator()
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    return sim, flash, BlockAllocator(flash)


def test_initial_free_pool_covers_everything():
    _, _, alloc = make_allocator()
    assert alloc.free_blocks == GEO.blocks
    assert len(alloc.free[0]) == GEO.blocks_per_plane


def test_allocate_on_die_is_sequential_within_block():
    _, _, alloc = make_allocator()
    addrs = [
        GEO.page_address(alloc.allocate_on_die(BlockAllocator.HOST, 0))
        for _ in range(GEO.pages_per_block)
    ]
    assert [a.page for a in addrs] == list(range(GEO.pages_per_block))
    assert len({a[:4] for a in addrs}) == 1


def test_allocate_opens_new_block_when_full():
    _, _, alloc = make_allocator()
    first = [GEO.page_address(alloc.allocate_on_die(0, 0)) for _ in range(GEO.pages_per_block)]
    nxt = GEO.page_address(alloc.allocate_on_die(0, 0))
    assert nxt.page == 0
    assert nxt[:4] != first[0][:4]


def test_streams_get_distinct_blocks():
    _, _, alloc = make_allocator()
    host = GEO.page_address(alloc.allocate_on_die(BlockAllocator.HOST, 0))
    gc = GEO.page_address(alloc.allocate_on_die(BlockAllocator.GC, 0))
    assert host[:4] != gc[:4]


def test_out_of_space_raised_per_die_and_globally():
    sim = Simulator()
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    alloc = BlockAllocator(flash, gc_reserve=0)
    # exhaust die 0: 3 blocks x 4 pages
    for _ in range(GEO.blocks_per_plane * GEO.pages_per_block):
        alloc.allocate_on_die(0, 0)
    with pytest.raises(OutOfSpaceError):
        alloc.allocate_on_die(0, 0)
    # die 1 still works
    alloc.allocate_on_die(0, 1)
    # exhaust die 1 too (minus the one just allocated)
    for _ in range(GEO.blocks_per_plane * GEO.pages_per_block - 1):
        alloc.allocate_on_die(0, 1)
    for die in range(GEO.dies):
        with pytest.raises(OutOfSpaceError):
            alloc.allocate_on_die(0, die)


def test_gc_reserve_blocks_host_but_not_gc():
    _, _, alloc = make_allocator()  # gc_reserve=1 by default
    # consume free blocks with the host stream until only the reserve is left
    opened = 0
    while alloc.free_blocks > 1:
        die = opened % GEO.dies
        for _ in range(GEO.pages_per_block):
            alloc.allocate_on_die(BlockAllocator.HOST, die)
        opened += 1
    with pytest.raises(OutOfSpaceError, match="reserve"):
        # die 1 still has the one remaining (reserved) free block; a host
        # open on it must be refused in favour of GC
        alloc.allocate_on_die(BlockAllocator.HOST, 1)
    # the GC stream can still claim the reserved block (on whichever die)
    got = None
    for die in range(GEO.dies):
        try:
            got = alloc.allocate_on_die(BlockAllocator.GC, die)
            break
        except OutOfSpaceError:
            continue
    assert got is not None


def test_wear_aware_block_selection():
    sim, flash, alloc = make_allocator()
    # age block 0 on die 0 artificially
    flash.pe_cycles[0] = 50
    addr = GEO.page_address(alloc.allocate_on_die(0, 0))
    block_index = GEO.block_index(BlockAddress(*addr[:4]))
    assert block_index != 0  # lowest-PE block preferred


def test_release_block_returns_to_pool():
    _, _, alloc = make_allocator()
    addr = GEO.page_address(alloc.allocate_on_die(0, 0))
    block_index = GEO.block_index(BlockAddress(*addr[:4]))
    before = alloc.free_blocks
    # fill & retire the frontier so the block is closed
    for _ in range(GEO.pages_per_block - 1):
        alloc.allocate_on_die(0, 0)
    alloc.allocate_on_die(0, 0)  # opens a new block
    alloc.release_block(block_index)
    assert alloc.free_blocks == before  # -1 new frontier +1 released


def test_release_open_or_free_block_rejected():
    _, _, alloc = make_allocator()
    addr = GEO.page_address(alloc.allocate_on_die(0, 0))
    block_index = GEO.block_index(BlockAddress(*addr[:4]))
    with pytest.raises(ValueError, match="open frontier"):
        alloc.release_block(block_index)
    free_block = next(iter(alloc.free[0]))
    with pytest.raises(ValueError, match="already free"):
        alloc.release_block(free_block)


def test_closed_blocks_excludes_free_and_open():
    _, _, alloc = make_allocator()
    assert alloc.closed_blocks() == []
    # fill one block completely, opening a second
    for _ in range(GEO.pages_per_block + 1):
        alloc.allocate_on_die(0, 0)
    closed = alloc.closed_blocks()
    assert len(closed) == 1


def test_invalid_arguments():
    _, _, alloc = make_allocator()
    with pytest.raises(ValueError):
        alloc.allocate_on_die(9, 0)
    with pytest.raises(ValueError):
        alloc.allocate_on_die(0, 99)
    with pytest.raises(ValueError):
        BlockAllocator(alloc.flash, streams=0)
