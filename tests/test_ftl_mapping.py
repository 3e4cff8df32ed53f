"""Unit + property tests for the page map invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry
from repro.ftl.mapping import UNMAPPED, PageMap

GEO = FlashGeometry(
    channels=1, dies_per_channel=2, planes_per_die=1, blocks_per_plane=4, pages_per_block=4,
    page_size=512,
)


def make_map(logical=24):
    return PageMap(GEO, logical)


def test_initially_unmapped():
    pm = make_map()
    assert pm.lookup(0) == UNMAPPED
    assert pm.lookup(5) == UNMAPPED
    assert pm.mapped_logical_pages() == 0


def test_bind_and_lookup():
    pm = make_map()
    assert pm.bind(3, 10) == UNMAPPED
    assert pm.lookup(3) == 10
    assert pm.p2l[10] == 3
    assert pm.valid_pages_in_block(10 // GEO.pages_per_block) == 1


def test_rebind_invalidates_old_copy():
    pm = make_map()
    pm.bind(3, 10)
    old = pm.bind(3, 20)
    assert old == 10
    assert pm.p2l[10] == UNMAPPED
    assert pm.lookup(3) == 20
    assert pm.valid_pages_in_block(10 // GEO.pages_per_block) == 0
    assert pm.valid_pages_in_block(20 // GEO.pages_per_block) == 1


def test_bind_occupied_ppn_rejected():
    pm = make_map()
    pm.bind(1, 10)
    with pytest.raises(ValueError, match="already holds"):
        pm.bind(2, 10)


def test_unbind_trim():
    pm = make_map()
    pm.bind(7, 12)
    assert pm.unbind(7) == 12
    assert pm.lookup(7) == UNMAPPED
    assert pm.p2l[12] == UNMAPPED
    assert pm.unbind(7) == UNMAPPED  # idempotent


def test_valid_lpns_in_block():
    pm = make_map()
    block = 2
    base = block * GEO.pages_per_block
    pm.bind(0, base + 0)
    pm.bind(9, base + 2)
    assert sorted(pm.valid_lpns_in_block(block)) == [0, 9]


def test_release_block_requires_empty():
    pm = make_map()
    pm.bind(0, 0)
    with pytest.raises(ValueError, match="valid pages"):
        pm.release_block(0)
    pm.unbind(0)
    pm.release_block(0)  # no raise


def test_bounds_checking():
    pm = make_map(logical=8)
    with pytest.raises(ValueError):
        pm.lookup(8)
    with pytest.raises(ValueError):
        pm.bind(0, GEO.pages)
    with pytest.raises(ValueError):
        PageMap(GEO, 0)
    with pytest.raises(ValueError):
        PageMap(GEO, GEO.pages + 1)


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("bind"), st.integers(0, 23), st.integers(0, GEO.pages - 1)),
            st.tuples(st.just("unbind"), st.integers(0, 23), st.just(0)),
        ),
        max_size=60,
    )
)
def test_invariants_hold_under_random_ops(ops):
    """L2P/P2L stay mutually consistent and valid counts never drift."""
    pm = make_map()
    for op, lpn, ppn in ops:
        if op == "bind":
            if pm.p2l[ppn] != UNMAPPED:
                continue  # physical page occupied; FTL would never do this
            pm.bind(lpn, ppn)
        else:
            pm.unbind(lpn)
    pm.check_invariants()
    assert (pm.valid_count >= 0).all()
    assert pm.valid_count.sum() == pm.mapped_logical_pages()
