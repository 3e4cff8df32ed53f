"""Unit + property tests for flash geometry and addressing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, PageAddress
from repro.flash.geometry import BlockAddress

SMALL = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=2, blocks_per_plane=4, pages_per_block=8,
    page_size=4096,
)


def test_derived_sizes():
    assert SMALL.dies == 4
    assert SMALL.planes == 8
    assert SMALL.blocks == 32
    assert SMALL.pages == 256
    assert SMALL.capacity_bytes == 256 * 4096


def test_default_geometry_is_16_channels():
    geo = FlashGeometry()
    assert geo.channels == 16  # the paper's per-SSD channel count


def test_page_index_roundtrip_corners():
    first = PageAddress(0, 0, 0, 0, 0)
    last = PageAddress(1, 1, 1, 3, 7)
    assert SMALL.page_index(first) == 0
    assert SMALL.page_index(last) == SMALL.pages - 1
    assert SMALL.page_address(0) == first
    assert SMALL.page_address(SMALL.pages - 1) == last


@given(index=st.integers(min_value=0, max_value=SMALL.pages - 1))
def test_page_roundtrip_property(index):
    assert SMALL.page_index(SMALL.page_address(index)) == index


@given(index=st.integers(min_value=0, max_value=SMALL.blocks - 1))
def test_block_roundtrip_property(index):
    assert SMALL.block_index(SMALL.block_address(index)) == index


def test_page_index_divides_into_block_index():
    """``FlashArray`` derives a page's block index as ``page_index //
    pages_per_block`` instead of building its ``BlockAddress``."""
    for index in range(SMALL.pages):
        addr = SMALL.page_address(index)
        assert SMALL.page_index(addr) // SMALL.pages_per_block == SMALL.block_index(
            BlockAddress(*addr[:4])
        )


@settings(max_examples=50)
@given(
    channels=st.integers(1, 4),
    dies=st.integers(1, 3),
    planes=st.integers(1, 2),
    blocks=st.integers(1, 5),
    pages=st.integers(1, 6),
)
def test_page_indexing_is_bijective(channels, dies, planes, blocks, pages):
    geo = FlashGeometry(
        channels=channels,
        dies_per_channel=dies,
        planes_per_die=planes,
        blocks_per_plane=blocks,
        pages_per_block=pages,
        page_size=512,
    )
    seen = {geo.page_index(geo.page_address(i)) for i in range(geo.pages)}
    assert seen == set(range(geo.pages))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        SMALL.page_index(PageAddress(2, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        SMALL.page_index(PageAddress(0, 0, 0, 0, 8))
    with pytest.raises(ValueError):
        SMALL.page_address(SMALL.pages)
    with pytest.raises(ValueError):
        SMALL.block_address(-1)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        FlashGeometry(channels=0)
    with pytest.raises(ValueError):
        FlashGeometry(page_size=-1)


def test_scaled_geometry_hits_target_capacity():
    geo = FlashGeometry()
    target = 4 * geo.capacity_bytes
    scaled = geo.scaled(target)
    assert scaled.channels == geo.channels  # parallelism preserved
    assert abs(scaled.capacity_bytes - target) / target < 0.05


def test_scaled_geometry_minimum_two_blocks():
    geo = FlashGeometry()
    tiny = geo.scaled(1)
    assert tiny.blocks_per_plane == 2
