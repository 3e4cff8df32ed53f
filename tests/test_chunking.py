"""Property-based tests for content-defined chunking (Gear rolling hash)."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objstore import ChunkParams, Chunker, chunk_digests, chunk_spans
from repro.objstore.chunking import _BLOCK, _GEAR, _gear_table, _window_hashes

PARAMS = ChunkParams(min_size=64, avg_size=256, max_size=1024)

_MASK64 = (1 << 64) - 1


def _reference_lengths(data: bytes, params: ChunkParams) -> list[int]:
    """The per-byte Gear loop: the oracle the vectorised chunker must match."""
    lengths: list[int] = []
    h = length = 0
    for byte in data:
        h = ((h << 1) + _GEAR[byte]) & _MASK64
        length += 1
        if (length >= params.min_size and (h & params.mask) == 0) or (
            length >= params.max_size
        ):
            lengths.append(length)
            h = length = 0
    if length:
        lengths.append(length)
    return lengths


@st.composite
def chunk_params(draw) -> ChunkParams:
    """Bounds including ``min_size=1``, ``min_size`` below the mask width,
    ``min == avg`` and ``avg == max``; small averages cut often, so every
    branch of the cut walk runs many times per payload."""
    min_size = draw(st.sampled_from([1, 2, 3, 5, 11, 64]) | st.integers(1, 600))
    avg_size = draw(
        st.just(min_size)
        | st.integers(min_size, min_size + 64)
        | st.integers(min_size, 4096)
    )
    max_size = draw(st.just(avg_size) | st.integers(avg_size, 4 * avg_size))
    return ChunkParams(min_size, avg_size, max_size)


#: Mask widths by the dtype the vectorised hash runs in.
WIDTHS = {"uint16": (1, 16), "uint64": (17, 70)}


@st.composite
def wide_chunk_params(draw, dtype: str) -> ChunkParams:
    """Bounds whose boundary mask is as wide as ``dtype``'s range in
    ``WIDTHS`` allows (widths past 64 test the same 64 bits)."""
    width = draw(st.integers(*WIDTHS[dtype]))
    avg_size = draw(st.integers(1 << width, (2 << width) - 1))
    min_size = draw(st.sampled_from([1, 2, 3, 5, 11, 64]) | st.integers(1, 600))
    max_size = draw(st.just(avg_size) | st.integers(avg_size, 4 * avg_size))
    params = ChunkParams(min(min_size, avg_size), avg_size, max_size)
    assert params.mask.bit_length() == width
    return params


payloads = st.binary(min_size=0, max_size=16 * 1024)

# seeded random bytes (Hypothesis' own binary draws stay short and
# low-entropy), single-byte runs (forced max_size cuts), all zeros, and mixes
random_bytes = st.builds(
    lambda seed, size: random.Random(seed).randbytes(size),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12 * 1024),
)
contents = st.one_of(
    random_bytes,
    st.binary(max_size=4 * 1024),
    st.builds(lambda b, n: bytes([b]) * n, st.integers(0, 255), st.integers(0, 20_000)),
    st.integers(0, 20_000).map(bytes),
    st.lists(random_bytes | st.integers(0, 3000).map(bytes), max_size=4).map(b"".join),
)

# page-like steps, or arbitrary cut points
fragmentations = st.sampled_from([1, 7, 101, 16384]) | st.lists(
    st.integers(0, 20_000), max_size=8
)


def lengths(data: bytes, params: ChunkParams = PARAMS) -> list[int]:
    return [length for _, length in chunk_spans(data, params)]


def streamed_lengths(pieces, params: ChunkParams) -> list[int]:
    chunker = Chunker(params)
    out: list[int] = []
    for piece in pieces:
        out.extend(chunker.update(piece))
    tail = chunker.finish()
    if tail is not None:
        out.append(tail)
    return out


def fragments(data: bytes, fragmentation) -> list[bytes]:
    if isinstance(fragmentation, int):
        return [data[i:i + fragmentation] for i in range(0, len(data), fragmentation)]
    cuts = sorted({min(cut, len(data)) for cut in fragmentation} | {0, len(data)})
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def test_empty_input_produces_no_chunks():
    assert lengths(b"") == []
    chunker = Chunker(PARAMS)
    assert list(chunker.update(b"")) == []
    assert chunker.finish() is None


@settings(max_examples=150, deadline=None)
@given(chunk_params(), contents, fragmentations)
def test_vectorised_chunker_matches_reference_loop(params, data, fragmentation):
    expected = _reference_lengths(data, params)
    assert lengths(data, params) == expected
    assert streamed_lengths(fragments(data, fragmentation), params) == expected


@settings(max_examples=40, deadline=None)
@given(st.data(), contents, fragmentations)
@pytest.mark.parametrize("dtype", sorted(WIDTHS))
def test_every_hash_width_matches_reference_loop(dtype, data, content, fragmentation):
    """The narrow-dtype hash cuts where the 64-bit loop does, for masks in
    each dtype's range."""
    params = data.draw(wide_chunk_params(dtype))
    assert _gear_table(min(params.mask.bit_length(), 64)).dtype.name == dtype
    expected = _reference_lengths(content, params)
    assert lengths(content, params) == expected
    assert streamed_lengths(fragments(content, fragmentation), params) == expected


@pytest.mark.parametrize("bits", [1, 2, 12, 16, 17, 31, 32, 33, 48, 64])
def test_window_hashes_keep_the_low_bits_of_the_64_bit_hash(bits):
    """Every window value's low ``bits`` bits equal those of the per-byte
    64-bit hash of the buffer up to that index, in every dtype."""
    data = random.Random(bits).randbytes(3000) + bytes(200) + b"\xff" * 200
    window = _window_hashes(np.frombuffer(data, dtype=np.uint8), bits)
    mask = (1 << bits) - 1
    h = 0
    for j, byte in enumerate(data):
        h = ((h << 1) + _GEAR[byte]) & _MASK64
        assert int(window[j]) & mask == h & mask, j


def test_reference_agreement_across_scan_blocks():
    """A buffer longer than one numpy pass is cut where the loop cuts it."""
    params = ChunkParams(min_size=512, avg_size=2048, max_size=8192)
    data = random.Random(13).randbytes(_BLOCK + 70_000)
    assert lengths(data, params) == _reference_lengths(data, params)


@settings(max_examples=60, deadline=None)
@given(chunk_params(), payloads)
def test_chunking_is_deterministic(params, data):
    assert lengths(data, params) == lengths(data, params)
    assert chunk_digests(data, params) == chunk_digests(data, params)


@settings(max_examples=60, deadline=None)
@given(chunk_params(), payloads)
def test_chunks_cover_input_exactly(params, data):
    spans = chunk_spans(data, params)
    assert sum(length for _, length in spans) == len(data)
    offset = 0
    for start, length in spans:
        assert start == offset
        offset += length


@settings(max_examples=60, deadline=None)
@given(chunk_params(), payloads)
def test_chunk_sizes_respect_bounds(params, data):
    sizes = lengths(data, params)
    assert all(size <= params.max_size for size in sizes)
    # every chunk but the (possibly short) final tail honours the floor
    assert all(size >= params.min_size for size in sizes[:-1])


@settings(max_examples=60, deadline=None)
@given(chunk_params(), payloads, st.binary(min_size=0, max_size=4 * 1024))
def test_concatenation_stable_at_chunk_boundaries(params, prefix, suffix):
    """Splitting the stream at an emitted boundary never changes the chunks:
    the rolling hash resets per chunk, so boundaries are self-synchronising."""
    whole = lengths(prefix + suffix, params)
    spans = chunk_spans(prefix, params)
    if not spans:
        return
    # feed the data in two pieces split at the first boundary; the chunk
    # sequence must match the one-shot pass byte for byte
    cut = spans[0][1]
    data = prefix + suffix
    assert streamed_lengths([data[:cut], data[cut:]], params) == whole


@settings(max_examples=40, deadline=None)
@given(chunk_params(), payloads)
def test_incremental_equals_one_shot_under_any_split(params, data):
    one_shot = lengths(data, params)
    for step in (1, 7, 101):
        assert streamed_lengths(fragments(data, step), params) == one_shot


@settings(max_examples=40, deadline=None)
@given(chunk_params(), payloads)
def test_digests_are_sha1_of_the_spans(params, data):
    spans = chunk_spans(data, params)
    digests = chunk_digests(data, params)
    assert len(digests) == len(spans)
    for (start, length), (digest, size) in zip(spans, digests):
        assert size == length
        assert digest == hashlib.sha1(data[start:start + length]).hexdigest()


def test_shared_suffix_resynchronises():
    """Prepending bytes only disturbs chunking near the edit: a long shared
    suffix converges to identical chunk digests (what makes dedup work)."""
    rng = random.Random(7)
    shared = bytes(rng.getrandbits(8) for _ in range(8 * 1024))
    a = dict(chunk_digests(b"X" * 37 + shared, PARAMS))
    b = dict(chunk_digests(shared, PARAMS))
    common = set(a) & set(b)
    assert sum(b[d] for d in common) > len(shared) // 2


def test_params_validate_bounds():
    import pytest

    with pytest.raises(ValueError):
        ChunkParams(min_size=0, avg_size=256, max_size=1024)
    with pytest.raises(ValueError):
        ChunkParams(min_size=512, avg_size=256, max_size=1024)
    with pytest.raises(ValueError):
        ChunkParams(min_size=64, avg_size=2048, max_size=1024)
