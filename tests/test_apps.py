"""Unit tests for the application suite (run on an embedded OS instance)."""

import bz2
import dataclasses
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import ARM_ISA, CYCLES_PER_BYTE, XEON_ISA, cycles_for
from repro.apps import default_registry, search
from repro.apps.base import clear_payload_cache
from repro.cpu import ARM_A53_QUAD, CpuCluster
from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer
from repro.isos import EmbeddedOS, ExtentFileSystem, FlashAccessDevice
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=24, pages_per_block=16,
    page_size=4096,
)

TEXT = (b"the quick brown fox jumps over the lazy dog\n" b"pack my box with five dozen jugs\n") * 300


def make_os(store_data=True, page_size=GEO.page_size):
    sim = Simulator()
    geo = dataclasses.replace(GEO, page_size=page_size)
    flash = FlashArray(
        sim, geometry=geo, error_model=BitErrorModel(rber0=1e-9), store_data=store_data
    )
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=min(2048, page_size))))
    ftl = FlashTranslationLayer(sim, flash, ecc)
    fs = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl))
    os_ = EmbeddedOS(sim, CpuCluster(sim, ARM_A53_QUAD), fs, default_registry(), isa=ARM_ISA)
    return sim, os_


def drive(sim, gen):
    return sim.run(sim.process(gen))


def put_file(sim, os_, name, data=None, size=None):
    drive(sim, os_.fs.write_file(name, data, size))


# -- compression ------------------------------------------------------------

def test_gzip_produces_decompressible_output():
    sim, os_ = make_os()
    put_file(sim, os_, "book.txt", TEXT)
    status, _ = drive(sim, os_.run("gzip book.txt"))
    assert status.code == 0
    blob = drive(sim, os_.fs.read_file("book.txt.gz"))
    assert zlib.decompress(blob) == TEXT
    assert status.detail["ratio"] < 0.5  # text compresses well


def test_gunzip_round_trip():
    sim, os_ = make_os()
    put_file(sim, os_, "book.txt", TEXT)
    drive(sim, os_.run("gzip book.txt"))
    drive(sim, os_.fs.delete("book.txt"))
    status, _ = drive(sim, os_.run("gunzip book.txt.gz"))
    assert status.code == 0
    assert drive(sim, os_.fs.read_file("book.txt")) == TEXT


def test_bzip2_round_trip():
    sim, os_ = make_os()
    put_file(sim, os_, "book.txt", TEXT)
    status, _ = drive(sim, os_.run("bzip2 book.txt"))
    blob = drive(sim, os_.fs.read_file("book.txt.bz2"))
    assert bz2.decompress(blob) == TEXT
    drive(sim, os_.fs.delete("book.txt"))
    status, _ = drive(sim, os_.run("bunzip2 book.txt.bz2"))
    assert status.code == 0
    assert drive(sim, os_.fs.read_file("book.txt")) == TEXT


def test_bzip2_beats_gzip_on_real_text():
    """On Zipfian (English-like) text, bzip2 compresses tighter than gzip."""
    from repro.workloads import BookCorpus, CorpusSpec

    book = BookCorpus(CorpusSpec(files=1, mean_file_bytes=96 * 1024)).generate()[0]
    sim, os_ = make_os()
    put_file(sim, os_, "a.txt", book.plain)
    put_file(sim, os_, "b.txt", book.plain)
    gz, _ = drive(sim, os_.run("gzip a.txt"))
    bz, _ = drive(sim, os_.run("bzip2 b.txt"))
    assert bz.detail["output_bytes"] < gz.detail["output_bytes"]


def test_compress_missing_file_fails():
    sim, os_ = make_os()
    status, _ = drive(sim, os_.run("gzip nothing.txt"))
    assert status.code == 1


def test_analytic_mode_compression_allocates_by_ratio():
    sim, os_ = make_os(store_data=False)
    size = 20 * GEO.page_size
    put_file(sim, os_, "ghost.txt", None, size=size)
    status, _ = drive(sim, os_.run("gzip ghost.txt"))
    assert status.code == 0
    out = os_.fs.stat("ghost.txt.gz")
    assert out.size == pytest.approx(size * 0.36, rel=0.01)


# -- search ----------------------------------------------------------------

def test_grep_counts_matching_lines():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"fox here\nno animal\nfox again\n")
    status, _ = drive(sim, os_.run("grep fox hay.txt"))
    assert status.code == 0
    assert status.stdout == b"2"


def test_grep_no_match_exit_code_1():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"nothing to see\n")
    status, _ = drive(sim, os_.run("grep unicorn hay.txt"))
    assert status.code == 1
    assert status.stdout == b"0"


def test_grep_case_insensitive_flag():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"FOX\nfox\nFoX\n")
    exact, _ = drive(sim, os_.run("grep fox hay.txt"))
    loose, _ = drive(sim, os_.run("grep -i fox hay.txt"))
    assert exact.detail["matches"] == 1
    assert loose.detail["matches"] == 3


def test_grep_pattern_across_page_boundary():
    """A match must not be lost when its line spans two pages."""
    sim, os_ = make_os()
    filler = b"x" * (GEO.page_size - 3)
    data = filler + b"needle is split here\n"
    put_file(sim, os_, "span.txt", data)
    status, _ = drive(sim, os_.run("grep needle span.txt"))
    assert status.detail["matches"] == 1


def test_grep_usage_error():
    sim, os_ = make_os()
    status, _ = drive(sim, os_.run("grep onlypattern"))
    assert status.code == 2


def test_gawk_counts_matches_and_fields():
    sim, os_ = make_os()
    put_file(sim, os_, "t.txt", b"a b c\nneedle x\ny needle z\n")
    status, _ = drive(sim, os_.run("gawk needle t.txt"))
    matches, fields = status.stdout.split()
    assert int(matches) == 2
    assert int(fields) == 8


# -- the grep/gawk page-scan memo ---------------------------------------------------

_TOKENS = st.sampled_from([b"needle", b"NeEdLe", b"need", b"le", b"x", b"", b"fox", b"\t"])
_LINES = st.lists(st.lists(_TOKENS, max_size=30).map(b" ".join), min_size=1, max_size=40)
_STRADDLE = (b"x" * 252 + b" needle\n") * 3  # after shift=1, bytes 254-259


def _scan_outcomes(sim, os_, app, flag, pattern):
    outcomes = []
    for name in ("hay.txt", "shifted.txt"):
        status, _ = drive(sim, os_.run(f"{app} {flag}'{pattern}' {name}"))
        outcomes.append((status.code, status.stdout, status.detail))
    return outcomes


def _rows(text):
    rows = text.split(b"\n")
    if not rows[-1]:
        rows.pop()  # the split artifact after a final newline
    return rows


@settings(max_examples=40)
@given(
    lines=_LINES,
    shift=st.integers(1, 300),
    terminated=st.booleans(),
    page_size=st.sampled_from([256, 512, 1024]),
    pattern=st.sampled_from(["needle", "eedl", "le ne", "zebra"]),
    fold_case=st.booleans(),
)
@example(lines=[_STRADDLE], shift=1, terminated=False, page_size=256,
         pattern="needle", fold_case=False)
def test_scan_memo_is_invisible(lines, shift, terminated, page_size, pattern, fold_case):
    """grep and gawk report the same stdout, exit code and counts whether the
    page-scan memo is cold, warm or bypassed, and match a per-line oracle.

    The memo is cleared once, so later commands meet entries of earlier ones
    that differ only in the app or in ``-i`` (drawn: which setting runs
    first).  ``shifted.txt`` shares every page but the first with
    ``hay.txt`` behind a different carry.  A key missing any of the three
    would miscount."""
    text = b"x" * shift + b"\n".join(lines) + (b"\n" if terminated else b"")
    texts = [text, b"y" * page_size + text[page_size:]]
    sim, os_ = make_os(page_size=page_size)
    put_file(sim, os_, "hay.txt", texts[0])
    put_file(sim, os_, "shifted.txt", texts[1])
    clear_payload_cache()
    for app in ("grep", "gawk"):
        for fold in (fold_case, not fold_case):
            flag = "-i " if fold else ""
            cold = _scan_outcomes(sim, os_, app, flag, pattern)
            assert search._SCAN_MEMO, "the scan never reached the memo"
            warm = _scan_outcomes(sim, os_, app, flag, pattern)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(search._CountingScanner, "consume", search._LineScanner.consume)
                bypassed = _scan_outcomes(sim, os_, app, flag, pattern)
            assert cold == warm == bypassed
            needle = pattern.lower().encode() if fold else pattern.encode()
            for (_, _, detail), data in zip(cold, texts):
                rows = _rows(data)
                if app == "grep":
                    hits = [needle in (r.lower() if fold else r) for r in rows]
                else:
                    hits = [needle in r for r in rows]
                    assert detail["fields"] == sum(len(r.split()) for r in rows)
                assert (detail["matches"], detail["lines"]) == (sum(hits), len(rows))


def test_scan_memo_is_fifo_bounded():
    memo = search._SCAN_MEMO
    for i in range(1030):
        memo.put(i, i)
    assert len(memo) == 1024
    assert next(iter(memo)) == 6  # the six oldest entries went first


# -- text utilities --------------------------------------------------------------

def test_wc_counts():
    sim, os_ = make_os()
    put_file(sim, os_, "w.txt", b"one two three\nfour five\n")
    status, _ = drive(sim, os_.run("wc w.txt"))
    lines, words, nbytes, _name = status.stdout.split()
    assert (int(lines), int(words)) == (2, 5)
    assert int(nbytes) == 24


def test_wc_word_spanning_pages_counted_once():
    sim, os_ = make_os()
    data = b"a" * (GEO.page_size + 10) + b" end\n"
    put_file(sim, os_, "span.txt", data)
    status, _ = drive(sim, os_.run("wc span.txt"))
    _, words, _, _ = status.stdout.split()
    assert int(words) == 2


def test_sha1sum_matches_hashlib():
    import hashlib

    sim, os_ = make_os()
    put_file(sim, os_, "h.txt", TEXT)
    status, _ = drive(sim, os_.run("sha1sum h.txt"))
    assert status.stdout.split()[0].decode() == hashlib.sha1(TEXT).hexdigest()
    # functional mode: a real digest, no analytic marker
    assert "analytic" not in status.detail
    assert status.detail["bytes"] == len(TEXT)


def test_sha1sum_analytic_mode_is_marked_not_empty_file():
    """Regression: with no payload flowing (analytic device) sha1sum used
    to emit the same empty stdout an empty file produces; the detail
    marker lets scorecards tell the two apart."""
    sim, os_ = make_os(store_data=False)
    put_file(sim, os_, "ghost.txt", None, size=4096)
    status, _ = drive(sim, os_.run("sha1sum ghost.txt"))
    assert status.code == 0
    assert status.stdout == b""
    assert status.detail == {"analytic": True, "bytes": 4096}


def test_ls_lists_files_with_sizes():
    sim, os_ = make_os()
    put_file(sim, os_, "z.txt", b"zz")
    status, _ = drive(sim, os_.run("ls"))
    assert b"z.txt" in status.stdout


def test_pipeline_gunzip_grep():
    """The paper's flagship flexibility: shell pipelines in-storage."""
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"the fox line\nboring line\n")
    drive(sim, os_.run("gzip hay.txt"))
    # decompress then search the decompressed file
    status, _ = drive(sim, os_.run("cat hay.txt | grep fox"))
    assert status.code == 2  # grep via stdin unsupported -> usage error is honest
    # the supported form: gunzip writes the file, grep scans it
    results = drive(sim, os_.run_script("gunzip hay.txt.gz; grep fox hay.txt"))
    assert results[-1][1].detail["matches"] == 1


# -- cost model -------------------------------------------------------------------

def test_apps_charge_calibrated_cycles():
    sim, os_ = make_os()
    put_file(sim, os_, "c.txt", TEXT)
    before = os_.cluster.cycles_executed
    drive(sim, os_.run("grep fox c.txt"))
    charged = os_.cluster.cycles_executed - before
    expected = cycles_for("grep", ARM_ISA, len(TEXT))
    assert charged >= expected  # app cycles + nothing less
    assert charged <= expected * 1.05  # and no mysterious extras


def test_calibration_tables_cover_all_apps():
    registry = default_registry()
    for name in registry.installed():
        assert name in CYCLES_PER_BYTE, f"no calibration for {name}"
        assert CYCLES_PER_BYTE[name][ARM_ISA] > CYCLES_PER_BYTE[name][XEON_ISA]


def test_cycles_for_validation():
    with pytest.raises(KeyError):
        cycles_for("unknown-app", ARM_ISA, 10)
    with pytest.raises(ValueError):
        cycles_for("grep", ARM_ISA, -1)


def test_filter_emits_matching_lines():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"fox one\nno match\nfox two\n")
    status, _ = drive(sim, os_.run("filter fox hay.txt"))
    assert status.code == 0
    assert status.stdout == b"fox one\nfox two"
    assert status.detail["matches"] == 2
    assert 0 < status.detail["selectivity"] < 1


def test_filter_no_match_exit_1():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"nothing here\n")
    status, _ = drive(sim, os_.run("filter unicorn hay.txt"))
    assert status.code == 1
    assert status.stdout == b""
    assert status.detail["bytes_emitted"] == 0


def test_filter_case_insensitive():
    sim, os_ = make_os()
    put_file(sim, os_, "hay.txt", b"FOX loud\nfox quiet\n")
    status, _ = drive(sim, os_.run("filter -i fox hay.txt"))
    assert status.detail["matches"] == 2


# -- head / tail / uniq ----------------------------------------------------------

def test_head_returns_first_lines():
    sim, os_ = make_os()
    put_file(sim, os_, "h.txt", b"l1\nl2\nl3\nl4\nl5\n")
    status, _ = drive(sim, os_.run("head -n 3 h.txt"))
    assert status.stdout == b"l1\nl2\nl3"


def test_head_early_exit_skips_pages():
    """head must not read the whole file (the in-storage sampling use case)."""
    sim, os_ = make_os()
    big = b"line\n" * 50000  # many pages
    put_file(sim, os_, "big.txt", big)
    total_pages = os_.fs.page_count("big.txt")
    status, _ = drive(sim, os_.run("head -n 5 big.txt"))
    assert status.detail["pages_read"] <= 2
    assert total_pages > 10


def test_head_default_ten_lines():
    sim, os_ = make_os()
    put_file(sim, os_, "h.txt", b"\n".join(b"l%d" % i for i in range(20)))
    status, _ = drive(sim, os_.run("head h.txt"))
    assert status.stdout.count(b"\n") == 9  # 10 lines


def test_tail_returns_last_lines():
    sim, os_ = make_os()
    put_file(sim, os_, "t.txt", b"a\nb\nc\nd\ne\n")
    status, _ = drive(sim, os_.run("tail -n 2 t.txt"))
    assert status.stdout == b"d\ne"


def test_tail_across_page_boundaries():
    sim, os_ = make_os()
    data = b"\n".join(b"line%05d" % i for i in range(3000)) + b"\n"
    put_file(sim, os_, "t.txt", data)
    status, _ = drive(sim, os_.run("tail -n 3 t.txt"))
    assert status.stdout == b"line02997\nline02998\nline02999"


def test_uniq_collapses_adjacent_duplicates():
    sim, os_ = make_os()
    put_file(sim, os_, "u.txt", b"a\na\nb\na\nb\nb\nb\n")
    status, _ = drive(sim, os_.run("uniq u.txt"))
    assert status.stdout == b"a\nb\na\nb"
    assert status.detail["duplicates"] == 3


def test_uniq_duplicate_spanning_pages():
    sim, os_ = make_os()
    line = b"same-line-content\n"
    put_file(sim, os_, "u.txt", line * 2000)  # spans several pages
    status, _ = drive(sim, os_.run("uniq u.txt"))
    assert status.detail["unique"] == 1
    assert status.detail["duplicates"] == 1999


def test_head_usage_error():
    sim, os_ = make_os()
    put_file(sim, os_, "h.txt", b"x\n")
    status, _ = drive(sim, os_.run("head -n notanumber h.txt"))
    assert status.code == 2


def test_sort_orders_lines_and_writes_output():
    sim, os_ = make_os()
    put_file(sim, os_, "s.txt", b"cherry\napple\nbanana\n")
    status, _ = drive(sim, os_.run("sort s.txt"))
    assert status.code == 0
    assert drive(sim, os_.fs.read_file("s.txt.sorted")) == b"apple\nbanana\ncherry\n"
    assert status.detail["lines"] == 3


def test_sort_then_uniq_script():
    """The in-storage `sort; uniq` workflow over scattered duplicates."""
    sim, os_ = make_os()
    put_file(sim, os_, "d.txt", b"b\na\nb\nc\na\n")
    results = drive(sim, os_.run_script("sort d.txt; uniq d.txt.sorted"))
    final = results[-1][1]
    assert final.stdout == b"a\nb\nc"
    assert final.detail["duplicates"] == 2


@pytest.mark.parametrize(
    "command, pages",
    [("grep fox book.txt", 3), ("head -n 100000 book.txt", 8)],
    ids=["grep-readahead", "head"],
)
def test_input_rewritten_shorter_mid_scan_fails_the_command(command, pages):
    """The file is rewritten to an eighth of a page 1 us into the scan; the
    new inode lands while the scan still has pages to read (``head`` reads
    faster, so it gets a longer file).  The page the stream sized itself
    for is gone: the command exits 1 naming the file, and the simulation
    keeps serving."""
    from repro.config import build_node, preset

    node = build_node(preset("smoke"))
    sim = node.sim
    fs = node.compstors[0].fs
    page = fs.page_size
    sim.run(sim.process(fs.write_file("book.txt", b"fox jumps\n" * (pages * page // 10))))
    assert fs.page_count("book.txt") == pages

    def rewrite():
        yield sim.timeout(1e-6)
        yield from fs.write_file("book.txt", b"f" * (page // 8))

    def session(line):
        return (yield from node.client.run("compstor0", line))

    sim.process(rewrite())
    response = sim.run(sim.process(session(command)))
    assert response.exit_code == 1
    assert b"book.txt: changed during read" in response.stdout
    after = sim.run(sim.process(session("grep f book.txt")))
    assert (after.exit_code, after.stdout) == (0, b"1")
