"""Content-defined chunking: rolling-hash boundaries with size bounds.

The dedup store splits object payloads into variable-size chunks whose
boundaries depend on *content*, not offsets, so an insertion early in an
object shifts bytes without shifting every later chunk boundary — the
property that makes digest-based dedup effective (the casstor lineage:
Rabin-fingerprint chunking over Cassandra blobs).

This implementation uses a Gear rolling hash (a 256-entry random table,
one shift-add-lookup per byte — the FastCDC family's hash) with min/avg/max
bounds:

- no boundary before ``min_size`` bytes (the hash is still warming up and
  tiny chunks waste index space);
- a boundary wherever the low ``bits(avg_size)`` bits of the hash are zero
  (expected chunk length ~= ``avg_size``);
- a forced boundary at ``max_size`` (bounds the worst case on
  pathological content such as long runs of one byte).

The hash resets at every boundary, so chunking is *self-synchronising*:
cutting a payload at any emitted boundary and chunking the halves separately
reproduces exactly the original chunk sequence.  The Hypothesis suite pins
that property (``tests/test_chunking.py``), and the in-situ minion app
(:class:`repro.objstore.apps.ChunkSumApp`) feeds pages through the same
incremental :class:`Chunker`, so device-side and host-side boundaries are
identical by construction.

Boundaries are found without a per-byte loop.  Since
``h = (h << 1) + gear[byte]``, the low ``k`` bits of ``h`` depend only on
the last ``k`` bytes; once a chunk is ``k`` bytes long, whether a position
is a boundary no longer depends on where the chunk began.  One numpy pass
per buffer marks every such candidate, and the cut walk only picks the
first candidate past ``min_size``.  The per-byte loop survives in the tests
as the reference this search must match.

That pass computes in uint16 when the mask is at most 16 bits wide (every
preset's is 11 or 12) and in uint64 otherwise.  The low ``k`` bits of a sum
or a left shift depend only on the low ``k`` bits of its operands, so
truncating the gear table and wrapping at 2**16 leaves every tested bit as
it is at 2**64, and the narrow arrays quarter the memory each doubling pass
touches.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["ChunkParams", "Chunker", "chunk_digests", "chunk_spans"]

#: Gear table: 256 pinned 64-bit constants.  Seeded stdlib RNG instance —
#: module-load determinism, never the global RNG.
_GEAR_RNG = random.Random(0x9E3779B97F4A7C15)
_GEAR: tuple[int, ...] = tuple(_GEAR_RNG.getrandbits(64) for _ in range(256))
_GEAR_TABLE = np.array(_GEAR, dtype=np.uint64)
#: The table truncated to its low 16 bits (see the module docstring).
_GEAR_TABLE16 = _GEAR_TABLE.astype(np.uint16)
#: Bytes scanned per numpy pass; bounds the uint64 temporaries to a few MiB.
_BLOCK = 1 << 20


@dataclass(frozen=True, slots=True)
class ChunkParams:
    """Chunking bounds; ``avg_size`` sets the boundary-mask width."""

    min_size: int = 1024
    avg_size: int = 4096
    max_size: int = 16384

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if not self.min_size <= self.avg_size <= self.max_size:
            raise ValueError("need min_size <= avg_size <= max_size")

    @property
    def mask(self) -> int:
        """Boundary mask: ``avg_size`` as a power-of-two bit width."""
        return (1 << max(1, self.avg_size.bit_length() - 1)) - 1


def _gear_table(bits: int) -> np.ndarray:
    """The gear table in uint16 if it holds ``bits`` bits, else in uint64."""
    return _GEAR_TABLE16 if bits <= 16 else _GEAR_TABLE


def _window_hashes(buf: np.ndarray, bits: int) -> np.ndarray:
    """Per index ``j``, ``sum(gear[buf[j - d]] << d)`` over ``d < bits``
    (and possibly more, which the low ``bits`` bits never see), in the dtype
    of :func:`_gear_table` and wrapping at its width; only the low ``bits``
    bits are meaningful.

    Bytes before the buffer count as absent, so at ``j < bits - 1`` this is
    the hash of ``buf[:j + 1]`` alone.  Built by doubling the window:
    ``w_2s[j] = w_s[j] + (w_s[j - s] << s)``, wrap-around included.
    """
    table = _gear_table(bits)
    window = table.take(buf)
    shift = table.dtype.type
    span = 1
    while span < bits:
        window[span:] += window[:-span] << shift(span)
        span *= 2
    return window


class Chunker:
    """Incremental content-defined chunker (page-seam safe).

    Feed bytes in any fragmentation via :meth:`update`; each call returns
    the lengths of the chunks completed by those bytes.  :meth:`finish`
    flushes the trailing partial chunk.  Boundary decisions depend only on
    the bytes since the previous boundary, never on fragment sizes, so
    streaming a file page by page produces the same chunks as one
    whole-buffer pass.
    """

    def __init__(self, params: ChunkParams):
        self.params = params
        # h is 64 bits wide, so a wider mask tests no more bits than this
        self._bits = min(params.mask.bit_length(), 64)
        # the mask as a scalar of the window's dtype, so `window & low`
        # stays in that dtype
        self._low = _gear_table(self._bits).dtype.type((1 << self._bits) - 1)
        self._length = 0  # bytes since the last boundary
        self._recent = b""  # the last min(_length, _bits - 1) of them

    def update(self, data: bytes) -> list[int]:
        cuts: list[int] = []
        view = memoryview(data)
        for offset in range(0, len(view), _BLOCK):
            cuts += self._scan(view[offset:offset + _BLOCK])
        return cuts

    def _scan(self, data: memoryview) -> list[int]:
        bits, low = self._bits, self._low
        min_size, max_size = self.params.min_size, self.params.max_size
        # carrying the last bits-1 bytes makes every window in `buf` whole
        buf = self._recent + data
        carried = len(self._recent)
        end = len(buf)
        octets = np.frombuffer(buf, dtype=np.uint8)
        window = _window_hashes(octets, bits)
        candidates = ((window & low) == 0).nonzero()[0].tolist()
        cuts: list[int] = []
        start = carried - self._length  # buf index of the open chunk's first byte
        while True:
            first = max(start + min_size - 1, carried)  # earliest untested index
            forced = start + max_size - 1
            warm = start + bits - 1  # from here the window holds only chunk bytes
            cut = -1
            if first < warm:
                # min_size < bits: positions this close to the chunk start hash
                # fewer bytes than the window, so hash exactly those bytes
                head = _window_hashes(octets[start:min(warm, forced + 1, end)], bits)
                hits = ((head[first - start:] & low) == 0).nonzero()[0]
                if hits.size:
                    cut = first + int(hits[0])
            if cut < 0:
                at = bisect_left(candidates, max(first, warm))
                if at < len(candidates) and candidates[at] <= forced:
                    cut = candidates[at]
                elif forced < end:
                    cut = forced
                else:
                    break
            cuts.append(cut + 1 - start)
            start = cut + 1
        self._length = end - start
        self._recent = buf[max(start, end - bits + 1):]
        return cuts

    def finish(self) -> int | None:
        """The trailing partial chunk's length (``None`` if flush-aligned)."""
        length = self._length if self._length else None
        self._length = 0
        self._recent = b""
        return length


def chunk_spans(data: bytes, params: ChunkParams) -> list[tuple[int, int]]:
    """``(offset, length)`` spans covering ``data`` exactly, in order."""
    chunker = Chunker(params)
    spans: list[tuple[int, int]] = []
    offset = 0
    for length in chunker.update(data):
        spans.append((offset, length))
        offset += length
    tail = chunker.finish()
    if tail is not None:
        spans.append((offset, tail))
    return spans


def chunk_digests(data: bytes, params: ChunkParams) -> list[tuple[str, int]]:
    """``(sha1_hex, length)`` per chunk — what PUT ships across PCIe."""
    return [
        (hashlib.sha1(data[offset:offset + length]).hexdigest(), length)
        for offset, length in chunk_spans(data, params)
    ]
