"""Fast tests for the experiment runners (tiny corpora).

The benches exercise the default paths; these tests cover the variants —
fixed-dataset strong scaling, decompression corpora, and the Fig. 1 row
structure — at sizes that run in well under a second each.
"""

from dataclasses import replace

from repro.analysis.figures import (
    Fig1Row,
    _corpus_for,
    _input_bytes,
    fig6_linearity,
    run_fig1,
    run_fig6,
)
from repro.config import preset
from repro.workloads import CorpusSpec

TINY = replace(
    preset("fig6"),
    corpus=CorpusSpec(files=4, mean_file_bytes=24 * 1024, size_spread=0.1),
)


def test_fig1_rows_structure():
    rows = run_fig1((1, 2))
    assert [r.ssd_count for r in rows] == [1, 2]
    assert isinstance(rows[0], Fig1Row)
    assert rows[1].media_bandwidth_bps == 2 * rows[0].media_bandwidth_bps


def test_fig6_fixed_dataset_strong_scaling():
    """Without weak scaling the same dataset splits across devices — still
    monotone but allowed to be sub-linear."""
    results = run_fig6(
        app="grep", device_counts=(1, 2), scenario=TINY,
        scale_dataset_with_devices=False,
    )
    tps = [tp for _, tp in results]
    assert tps[1] > tps[0]


def test_fig6_weak_scaling_near_linear_tiny():
    results = run_fig6(app="grep", device_counts=(1, 2), scenario=TINY)
    _, _, r2 = fig6_linearity(results)
    assert r2 > 0.9


def test_corpus_for_decompression_apps():
    gz_books = _corpus_for("gunzip", TINY)
    assert all(b.compression == "gzip" for b in gz_books)
    bz_books = _corpus_for("bunzip2", TINY)
    assert all(b.compression == "bzip2" for b in bz_books)
    plain = _corpus_for("grep", TINY)
    assert {b.compression for b in plain} == {"gzip", "bzip2"}  # staging irrelevant


def test_input_bytes_counts_the_right_side():
    books = _corpus_for("gunzip", TINY)
    assert _input_bytes(books, "gunzip") == sum(b.compressed_size for b in books)
    assert _input_bytes(books, "grep") == sum(b.plain_size for b in books)
    assert _input_bytes(books, "gunzip") < _input_bytes(books, "grep")


def test_fig6_gunzip_runs_end_to_end():
    """Decompression scaling: compressed staging + .gz targets."""
    results = run_fig6(app="gunzip", device_counts=(1,), scenario=TINY)
    assert results[0][1] > 0


def test_default_spec_sane():
    corpus = preset("fig6").corpus
    assert corpus.files >= 4
    assert corpus.mean_file_bytes >= 32 * 1024
