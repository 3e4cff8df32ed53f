"""Page-level address mapping.

:class:`PageMap` maintains the logical-to-physical map (L2P), the reverse
map (P2L) and per-block valid-page counts as flat NumPy arrays.  All three
views are updated atomically by each mutator, preserving the invariants:

- ``l2p[lpn] == ppn  <=>  p2l[ppn] == lpn`` for every mapped pair;
- ``valid_count[block] == |{ppn in block : p2l[ppn] != UNMAPPED}|``.

The property-based tests in ``tests/test_ftl_mapping.py`` drive random
operation sequences against these invariants.
"""

from __future__ import annotations

import numpy as np

from repro.flash.geometry import FlashGeometry

__all__ = ["PageMap", "UNMAPPED"]

#: Sentinel for "no mapping".
UNMAPPED = -1


class PageMap:
    """L2P/P2L map over a flash geometry.

    Parameters
    ----------
    geometry:
        Physical geometry (defines the physical page count).
    logical_pages:
        Exported logical page count (< physical total because of
        over-provisioning).
    """

    def __init__(self, geometry: FlashGeometry, logical_pages: int):
        if not 0 < logical_pages <= geometry.pages:
            raise ValueError(
                f"logical_pages must be in (0, {geometry.pages}], got {logical_pages}"
            )
        self.geometry = geometry
        self.logical_pages = logical_pages
        self.l2p = np.full(logical_pages, UNMAPPED, dtype=np.int64)
        self.p2l = np.full(geometry.pages, UNMAPPED, dtype=np.int64)
        self.valid_count = np.zeros(geometry.blocks, dtype=np.int32)

    # -- queries -----------------------------------------------------------
    def lookup(self, lpn: int) -> int:
        """Physical page for ``lpn`` or :data:`UNMAPPED`."""
        self._check_lpn(lpn)
        return int(self.l2p[lpn])

    def valid_pages_in_block(self, block_index: int) -> int:
        return int(self.valid_count[block_index])

    def mapped_logical_pages(self) -> int:
        return int(np.count_nonzero(self.l2p != UNMAPPED))

    def valid_lpns_in_block(self, block_index: int) -> list[int]:
        """Logical pages whose current copy lives in ``block_index``."""
        per_block = self.geometry.pages_per_block
        start = block_index * per_block
        segment = self.p2l[start : start + per_block]
        return [int(lpn) for lpn in segment[segment != UNMAPPED]]

    # -- mutations -----------------------------------------------------------
    def bind(self, lpn: int, ppn: int) -> int:
        """Map ``lpn`` to ``ppn``; returns the previous ppn (now stale) or
        :data:`UNMAPPED`.  The caller owns invalidating/erasing the old copy's
        block — this method already decrements its valid count."""
        self._check_lpn(lpn)
        self._check_ppn(ppn)
        if self.p2l[ppn] != UNMAPPED:
            raise ValueError(f"ppn {ppn} already holds lpn {int(self.p2l[ppn])}")
        old = int(self.l2p[lpn])
        if old != UNMAPPED:
            self.p2l[old] = UNMAPPED
            self.valid_count[old // self.geometry.pages_per_block] -= 1
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        self.valid_count[ppn // self.geometry.pages_per_block] += 1
        return old

    def unbind(self, lpn: int) -> int:
        """Drop the mapping for ``lpn`` (TRIM); returns the stale ppn or
        :data:`UNMAPPED` if it was not mapped."""
        self._check_lpn(lpn)
        old = int(self.l2p[lpn])
        if old != UNMAPPED:
            self.l2p[lpn] = UNMAPPED
            self.p2l[old] = UNMAPPED
            self.valid_count[old // self.geometry.pages_per_block] -= 1
        return old

    def release_block(self, block_index: int) -> None:
        """Assert a block is fully invalid before erase (GC postcondition)."""
        if self.valid_count[block_index] != 0:
            raise ValueError(
                f"block {block_index} still has {int(self.valid_count[block_index])} "
                "valid pages; GC must relocate them before erase"
            )

    # -- invariants (used by property tests and debug builds) ------------------
    def check_invariants(self) -> None:
        mapped = np.flatnonzero(self.l2p != UNMAPPED)
        for lpn in mapped:
            ppn = self.l2p[lpn]
            assert self.p2l[ppn] == lpn, f"l2p/p2l disagree at lpn {lpn}"
        held = np.flatnonzero(self.p2l != UNMAPPED)
        for ppn in held:
            lpn = self.p2l[ppn]
            assert self.l2p[lpn] == ppn, f"p2l/l2p disagree at ppn {ppn}"
        per_block = self.geometry.pages_per_block
        counts = np.zeros_like(self.valid_count)
        for ppn in held:
            counts[ppn // per_block] += 1
        assert (counts == self.valid_count).all(), "valid_count drifted"

    # -- guards ---------------------------------------------------------------
    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.geometry.pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self.geometry.pages})")
