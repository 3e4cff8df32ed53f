"""Unit tests for the synthetic book corpus."""

import bz2
import copy
import hashlib
import pickle
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import BookCorpus, CorpusSpec, partition_round_robin
from repro.workloads import corpus as corpus_module
from repro.workloads.corpus import _make_vocabulary


def test_corpus_is_deterministic():
    a = BookCorpus(CorpusSpec(files=3, mean_file_bytes=8192)).generate()
    b = BookCorpus(CorpusSpec(files=3, mean_file_bytes=8192)).generate()
    assert [x.plain for x in a] == [y.plain for y in b]
    assert [x.needle_count for x in a] == [y.needle_count for y in b]


def test_different_seeds_differ():
    a = BookCorpus(CorpusSpec(files=2, seed=1)).generate()
    b = BookCorpus(CorpusSpec(files=2, seed=2)).generate()
    assert a[0].plain != b[0].plain


def test_compression_ratio_in_english_range():
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=128 * 1024)).generate()
    for book in books:
        assert 0.15 < book.ratio < 0.6, f"{book.name} ratio {book.ratio}"


def test_compressions_alternate_and_decompress():
    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=16 * 1024)).generate()
    assert [b.compression for b in books] == ["gzip", "bzip2", "gzip", "bzip2"]
    assert zlib.decompress(books[0].compressed) == books[0].plain
    assert bz2.decompress(books[1].compressed) == books[1].plain


def test_needle_count_matches_content():
    spec = CorpusSpec(files=2, mean_file_bytes=64 * 1024, needle_rate=0.01)
    books = BookCorpus(spec).generate()
    for book in books:
        assert book.needle_count > 0
        # every injected needle appears (word boundaries guaranteed by join)
        assert book.plain.count(spec.needle.encode()) >= book.needle_count


def test_file_sizes_spread_around_mean():
    spec = CorpusSpec(files=30, mean_file_bytes=64 * 1024)
    books = BookCorpus(spec).generate(functional=False)
    sizes = [b.plain_size for b in books]
    mean = sum(sizes) / len(sizes)
    assert 0.4 * spec.mean_file_bytes < mean < 3.0 * spec.mean_file_bytes
    assert len(set(sizes)) > 10  # actually spread


def test_analytic_generation_is_instant_at_paper_scale():
    spec = CorpusSpec.paper_scale()
    books = BookCorpus(spec).generate(functional=False)
    assert len(books) == 348
    total_compressed = sum(b.compressed_size for b in books)
    # the paper: ~11.3 GB of compressed books
    assert 6e9 < total_compressed < 20e9
    assert all(b.plain is None for b in books)


def test_compressed_names():
    books = BookCorpus(CorpusSpec(files=2, mean_file_bytes=4096)).generate(functional=False)
    assert books[0].compressed_name.endswith(".gz")
    assert books[1].compressed_name.endswith(".bz2")


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(files=0)
    with pytest.raises(ValueError):
        CorpusSpec(needle_rate=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(compressions=("zip",))


def test_partition_round_robin():
    parts = partition_round_robin(list(range(10)), 3)
    assert [len(p) for p in parts] == [4, 3, 3]
    assert sorted(sum(parts, [])) == list(range(10))
    with pytest.raises(ValueError):
        partition_round_robin([1], 0)


# -- golden corpus bytes --------------------------------------------------------

#: sha256 over (name, plain bytes, needle count, compressed bytes) of every
#: book, each part length-prefixed.  Recorded before corpus generation was
#: batched; any drift in the text, the RNG stream or the codecs flips it.
GOLDEN_CORPORA = {
    "default": (
        CorpusSpec(),
        "67c69cc9d25b0ecfb9d27aad88b1e26b6c07db24abc1a3fa6463d0dfdbc87faa",
    ),
    "jobs": (  # the `jobs` benchmark corpus at seed 1
        CorpusSpec(files=256, mean_file_bytes=64 * 1024, size_spread=0.0, seed=1),
        "7fa19e10d391d299d2757b945a061302e5e922d307aad4b933d5794929c8691b",
    ),
    "tiny-1k": (  # text is always cut to the drawn size
        CorpusSpec(files=8, mean_file_bytes=1024, size_spread=0.0, seed=5),
        "f3ae7337b5449fee4910294937be148e32b2a3a09761258bffc999efb3c94b62",
    ),
    "no-needles": (
        CorpusSpec(files=4, mean_file_bytes=32 * 1024, needle_rate=0.0, seed=11),
        "bc6849c5a31e35eb88f546d51f92fa86bdd0f3fa954fe1a9e95fd069b531ffa1",
    ),
    "dense-needles": (
        CorpusSpec(files=4, mean_file_bytes=32 * 1024, needle_rate=0.3, seed=12),
        "b818b31761d74ffd0b8df4364e1aba8114bad6172cc227ef7754b83785a28422",
    ),
    "uncompressed": (
        CorpusSpec(files=4, mean_file_bytes=32 * 1024, compressions=("none",), seed=13),
        "5bb27f8c652d4500e8c93a889a3ce3244d96706ce5c2662c9dac3eecc7219b79",
    ),
}


def corpus_digest(spec: CorpusSpec) -> str:
    h = hashlib.sha256()
    for book in BookCorpus(spec).generate():
        for part in (book.name.encode(), book.plain, str(book.needle_count).encode(),
                     book.compressed):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_CORPORA))
def test_corpus_bytes_match_golden(key):
    spec, expected = GOLDEN_CORPORA[key]
    assert corpus_digest(spec) == expected



# -- batched generation vs the per-line oracle ---------------------------------


def _reference_vocabulary(rng):
    """The per-word vocabulary draw ``_make_vocabulary`` batches."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lengths = rng.integers(2, 11, size=4096)
    return [bytes(rng.choice(letters, size=int(n))) for n in lengths]


def _reference_text(rng, vocab, weights, spec, nbytes):
    """The per-line generator ``BookCorpus._generate_text`` replaces."""
    mean_word = float(np.mean([len(w) for w in vocab])) + 1.0
    n_words = max(16, int(nbytes / mean_word))
    idx = rng.choice(len(vocab), size=n_words, p=weights)
    words = [vocab[i] for i in idx]
    needle_count = 0
    if spec.needle_rate > 0:
        hits = np.flatnonzero(rng.random(n_words) < spec.needle_rate)
        for h in hits:
            words[int(h)] = spec.needle.encode()
        needle_count = len(hits)
    out = bytearray()
    i = 0
    while i < n_words:
        line_len = int(rng.integers(8, 15))
        out += b" ".join(words[i : i + line_len])
        out += b"\n"
        i += line_len
    return bytes(out[:nbytes]), needle_count


@pytest.mark.parametrize("earlier", [0, 1, 2, 3, 7])
def test_batched_integers_continue_the_scalar_stream(earlier):
    """Batched line-length draws rely on numpy giving the same bounded
    integers, and the same end state, as one scalar call per value, also
    when an odd number of earlier draws left half a 64-bit word buffered."""
    scalar, batched = np.random.default_rng(99), np.random.default_rng(99)
    for rng in (scalar, batched):
        for _ in range(earlier):
            rng.integers(8, 15)
        rng.random(3)
    one_by_one = [int(scalar.integers(8, 15)) for _ in range(25)]
    assert batched.integers(8, 15, size=25).tolist() == one_by_one, (
        "numpy's bounded-integer stream changed: batched draws differ from scalar ones"
    )
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_vocabulary_matches_per_word_draws():
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert _make_vocabulary(rng) == _reference_vocabulary(reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nbytes=st.integers(1024, 256 * 1024),
    needle_rate=st.sampled_from([0.0, 1.0 / 2000.0, 0.3]) | st.floats(0.0, 0.5),
    earlier=st.integers(0, 3),
)
def test_generate_text_matches_per_line_oracle(seed, nbytes, needle_rate, earlier):
    corpus = BookCorpus(CorpusSpec(needle_rate=needle_rate, seed=seed))
    corpus._rng.integers(8, 15, size=earlier)  # odd counts leave a 32-bit half buffered
    reference_rng = copy.deepcopy(corpus._rng)
    text, needles = corpus._generate_text(nbytes)
    expected_text, expected_needles = _reference_text(
        reference_rng, corpus._vocab, corpus._weights, corpus.spec, nbytes
    )
    assert text == expected_text
    assert needles == expected_needles
    assert corpus._rng.bit_generator.state == reference_rng.bit_generator.state


# -- lazy compression -----------------------------------------------------------


@pytest.fixture
def compress_calls(monkeypatch):
    calls = []
    real = corpus_module._compress

    def counting(data, algorithm):
        calls.append(algorithm)
        return real(data, algorithm)

    monkeypatch.setattr(corpus_module, "_compress", counting)
    return calls


def test_generation_and_plain_staging_compress_nothing(compress_calls):
    from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet

    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=16 * 1024)).generate()
    fleet = build_fleet(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=1),
    ))
    fleet.sim.run(fleet.sim.process(fleet.stage_corpus(books)))
    assert compress_calls == []


def test_first_compressed_read_compresses_once(compress_calls):
    book = BookCorpus(CorpusSpec(files=2, mean_file_bytes=16 * 1024)).generate()[1]
    blob = book.compressed
    assert compress_calls == ["bzip2"]
    assert bz2.decompress(blob) == book.plain
    assert book.compressed is blob
    assert book.compressed_size == len(blob)
    assert book.ratio == len(blob) / book.plain_size
    assert compress_calls == ["bzip2"]


def test_replace_pickle_and_equality_ignore_the_cache():
    fresh, used = (BookCorpus(CorpusSpec(files=1, mean_file_bytes=8192)).generate()[0]
                   for _ in range(2))
    blob = used.compressed
    assert fresh == used  # equality does not see whether the cache is filled
    assert repr(fresh) == repr(used)
    renamed = replace(used, name="alt")
    assert renamed.name == "alt" and renamed.compressed == blob
    for book in (fresh, used):
        clone = pickle.loads(pickle.dumps(book))
        assert clone == book and clone.compressed == blob


def test_analytic_books_have_no_compressed_bytes(compress_calls):
    spec = CorpusSpec(files=2, mean_file_bytes=8192)
    for book in BookCorpus(spec).generate(functional=False):
        assert book.compressed is None
        assert book.compressed_size == book.analytic_compressed_size > 0
    assert compress_calls == []


# -- IO pattern generators ----------------------------------------------------

def _rng(seed=0):
    import numpy as np

    return np.random.default_rng(seed)


def test_uniform_covers_space():
    from repro.workloads import uniform

    addrs = uniform(_rng(), logical_pages=100, count=5000)
    assert addrs.min() >= 0 and addrs.max() < 100
    assert len(set(addrs.tolist())) > 90  # essentially full coverage


def test_hot_cold_skew():
    from repro.workloads import hot_cold

    addrs = hot_cold(_rng(), logical_pages=1000, count=20000,
                     hot_fraction=0.2, hot_probability=0.8)
    hot_hits = int((addrs < 200).sum())
    assert 0.75 < hot_hits / 20000 < 0.85  # ~80% to the hot 20%


def test_zipfian_rank_ordering():
    from repro.workloads import zipfian
    import numpy as np

    addrs = zipfian(_rng(), logical_pages=50, count=30000, s=1.2)
    counts = np.bincount(addrs, minlength=50)
    assert counts[0] > counts[10] > counts[40]  # popularity decays with rank


def test_sequential_wraps():
    from repro.workloads import sequential

    addrs = sequential(logical_pages=10, count=25, start=7)
    assert addrs[:5].tolist() == [7, 8, 9, 0, 1]
    assert len(addrs) == 25


def test_pattern_validation():
    import pytest

    from repro.workloads import hot_cold, sequential, uniform, zipfian

    with pytest.raises(ValueError):
        uniform(_rng(), 0, 5)
    with pytest.raises(ValueError):
        hot_cold(_rng(), 10, 5, hot_fraction=0.0)
    with pytest.raises(ValueError):
        zipfian(_rng(), 10, 5, s=0)
    with pytest.raises(ValueError):
        sequential(10, 5, start=10)


def test_patterns_deterministic_per_seed():
    from repro.workloads import uniform, zipfian

    assert (uniform(_rng(3), 100, 50) == uniform(_rng(3), 100, 50)).all()
    assert (zipfian(_rng(3), 100, 50) == zipfian(_rng(3), 100, 50)).all()
