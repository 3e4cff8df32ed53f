"""Flash array geometry and page addressing.

A flash array is organised as ``channels x dies x planes x blocks x pages``.
Pages are the program/read unit; blocks are the erase unit; dies operate
independently; a channel's bus serialises data transfers for all dies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["FlashGeometry", "PageAddress", "BlockAddress"]


class PageAddress(NamedTuple):
    """Physical page address within a flash array."""

    channel: int
    die: int
    plane: int
    block: int
    page: int


class BlockAddress(NamedTuple):
    """Physical block address (erase unit)."""

    channel: int
    die: int
    plane: int
    block: int


@dataclass(frozen=True, slots=True)
class FlashGeometry:
    """Dimensions of a flash array.

    The defaults model one 16-channel enterprise SSD in the scale class of
    the paper's 24TB prototype, scaled down in block count so functional
    simulations stay fast; capacity-accurate instances are produced by
    :meth:`scaled`.
    """

    channels: int = 16
    dies_per_channel: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 64
    pages_per_block: int = 128
    page_size: int = 16384  # bytes, typical 16 KiB TLC page
    # Derived sizes, computed once in __post_init__: the FTL and flash
    # paths read them per page.
    dies: int = field(init=False, repr=False, compare=False)
    planes: int = field(init=False, repr=False, compare=False)
    blocks: int = field(init=False, repr=False, compare=False)
    pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        dies = self.channels * self.dies_per_channel
        planes = dies * self.planes_per_die
        blocks = planes * self.blocks_per_plane
        object.__setattr__(self, "dies", dies)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "pages", blocks * self.pages_per_block)

    # -- derived sizes -----------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.pages * self.page_size

    # -- address arithmetic --------------------------------------------------
    def page_index(self, addr: PageAddress) -> int:
        """Linearise a page address (row-major over the geometry)."""
        self.validate(addr)
        return (
            (
                ((addr.channel * self.dies_per_channel + addr.die) * self.planes_per_die + addr.plane)
                * self.blocks_per_plane
                + addr.block
            )
            * self.pages_per_block
            + addr.page
        )

    def page_address(self, index: int) -> PageAddress:
        """Inverse of :meth:`page_index`."""
        if not 0 <= index < self.pages:
            raise ValueError(f"page index {index} out of range [0, {self.pages})")
        index, page = divmod(index, self.pages_per_block)
        index, block = divmod(index, self.blocks_per_plane)
        index, plane = divmod(index, self.planes_per_die)
        channel, die = divmod(index, self.dies_per_channel)
        return PageAddress(channel, die, plane, block, page)

    def block_index(self, addr: BlockAddress) -> int:
        return (
            (addr.channel * self.dies_per_channel + addr.die) * self.planes_per_die + addr.plane
        ) * self.blocks_per_plane + addr.block

    def block_address(self, index: int) -> BlockAddress:
        if not 0 <= index < self.blocks:
            raise ValueError(f"block index {index} out of range [0, {self.blocks})")
        index, block = divmod(index, self.blocks_per_plane)
        index, plane = divmod(index, self.planes_per_die)
        channel, die = divmod(index, self.dies_per_channel)
        return BlockAddress(channel, die, plane, block)

    def validate(self, addr: PageAddress | BlockAddress) -> None:
        """Raise ``ValueError`` for an out-of-range address."""
        if not (
            0 <= addr.channel < self.channels
            and 0 <= addr.die < self.dies_per_channel
            and 0 <= addr.plane < self.planes_per_die
            and 0 <= addr.block < self.blocks_per_plane
        ):
            raise ValueError(f"address {addr} outside geometry {self}")
        if isinstance(addr, PageAddress) and not 0 <= addr.page < self.pages_per_block:
            raise ValueError(f"page {addr.page} outside block of {self.pages_per_block} pages")

    def scaled(self, capacity_bytes: int) -> "FlashGeometry":
        """A geometry with the same parallelism but ~``capacity_bytes`` total,
        adjusted via ``blocks_per_plane`` (minimum 2 blocks per plane)."""
        per_plane_bytes = self.pages_per_block * self.page_size
        blocks_per_plane = max(2, round(capacity_bytes / (self.planes * per_plane_bytes)))
        return FlashGeometry(
            channels=self.channels,
            dies_per_channel=self.dies_per_channel,
            planes_per_die=self.planes_per_die,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=self.pages_per_block,
            page_size=self.page_size,
        )
