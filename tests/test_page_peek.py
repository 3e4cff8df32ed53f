"""``peek_pages``: a file's pages looked up without simulated time.

The gzip/bzip2 codec lane starts compressing from what
:meth:`~repro.isos.filesystem.ExtentFileSystem.peek_pages` returns when the
minion begins, so on both translation backends it must equal, chunk for
chunk, what :meth:`~repro.isos.filesystem.ExtentFileSystem.read_page_of`
then streams: from the write buffer, the read cache and flash, after
overwrites and GC relocation, and for a short last page.  Where no payload
can be looked up (analytic mode, the host's NVMe path) it returns ``None``.
"""

from __future__ import annotations

import pytest

from repro.host import HostServer
from repro.isos import ExtentFileSystem, FlashAccessDevice
from repro.sim import Simulator
from repro.ssd import ConventionalSSD
from repro.ssd.conventional import small_geometry
from tests.test_ftl import GEO, config_for, drive, make_ftl

BACKENDS = ("page", "zoned")
PAGE = GEO.page_size


def make_fs(backend, **config):
    sim, ftl = make_ftl(backend=backend, config=config_for(backend, **config))
    return sim, ftl, ExtentFileSystem(sim, FlashAccessDevice(sim, ftl))


def text(pages: float, tag: bytes) -> bytes:
    """``pages`` pages of distinct bytes, so a misplaced page shows."""
    size = int(pages * PAGE)
    line = tag + b" the quick brown fox jumps over the lazy dog\n"
    return (line * (size // len(line) + 1))[:size]


def streamed(sim, fs, name):
    def scan():
        chunks = []
        for index in range(fs.page_count(name)):
            chunk, _take = yield from fs.read_page_of(name, index)
            chunks.append(chunk)
        return chunks

    return drive(sim, scan())


def assert_peek_matches_stream(sim, fs, name):
    peeked = fs.peek_pages(name)
    assert peeked is not None
    assert peeked == streamed(sim, fs, name)
    return peeked


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_of_a_staged_file(backend):
    sim, ftl, fs = make_fs(backend)
    data = text(3, b"staged")
    drive(sim, fs.write_file("book.txt", data))
    drive(sim, fs.device.flush())
    assert not any(ftl.write_buffer.peek(lpn)[0] for lpn in fs.stat("book.txt").pages)
    assert b"".join(assert_peek_matches_stream(sim, fs, "book.txt")) == data


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_of_pages_still_in_the_write_buffer(backend):
    sim, ftl, fs = make_fs(backend, write_buffer_pages=64)
    drive(sim, fs.write_file("book.txt", text(2, b"buffered")))
    assert any(ftl.write_buffer.peek(lpn)[0] for lpn in fs.stat("book.txt").pages)
    assert_peek_matches_stream(sim, fs, "book.txt")


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_of_read_cache_hits(backend):
    sim, ftl, fs = make_fs(backend, read_cache_pages=8)
    drive(sim, fs.write_file("book.txt", text(3, b"cached")))
    drive(sim, fs.device.flush())
    first = streamed(sim, fs, "book.txt")  # fills the read cache
    hits = ftl.read_cache_hits
    assert all(lpn in ftl._read_cache for lpn in fs.stat("book.txt").pages)
    assert assert_peek_matches_stream(sim, fs, "book.txt") == first
    assert ftl.read_cache_hits == hits + 3
    # a lookup is no read: it neither counts nor reorders the cache
    reads = ftl.host_reads
    fs.peek_pages("book.txt")
    assert ftl.host_reads == reads


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_of_an_overwritten_file(backend):
    sim, _ftl, fs = make_fs(backend)
    drive(sim, fs.write_file("book.txt", text(3, b"old")))
    drive(sim, fs.device.flush())
    new = text(2.5, b"new")
    drive(sim, fs.write_file("book.txt", new))
    assert b"".join(assert_peek_matches_stream(sim, fs, "book.txt")) == new
    drive(sim, fs.device.flush())
    assert b"".join(assert_peek_matches_stream(sim, fs, "book.txt")) == new


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_after_gc_relocation(backend):
    """Overwrite a spread of other pages until the collector moves the
    file's (every block keeps some valid pages, so victims need copying)."""
    sim, ftl, fs = make_fs(backend, op_ratio=0.34, write_buffer_pages=4)
    data = text(2, b"cold")
    drive(sim, fs.write_file("cold.txt", data))
    lpns = fs.stat("cold.txt").pages
    placed = None

    def churn(round_):
        for k in range(20):
            yield from ftl.write(40 + (round_ * 37 + k * 11) % 80, b"churn %d" % round_)
        yield from ftl.flush()

    for round_ in range(50):
        drive(sim, churn(round_))
        if placed is None:
            placed = [ftl.page_map.lookup(lpn) for lpn in lpns]
        elif [ftl.page_map.lookup(lpn) for lpn in lpns] != placed:
            break
    else:
        pytest.fail("the collector never moved the file's pages")
    assert ftl.gc.pages_relocated > 0
    assert b"".join(assert_peek_matches_stream(sim, fs, "cold.txt")) == data


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_of_a_short_last_page(backend):
    sim, _ftl, fs = make_fs(backend)
    data = text(2, b"short") + b"tail"
    drive(sim, fs.write_file("book.txt", data))
    peeked = assert_peek_matches_stream(sim, fs, "book.txt")
    assert [len(chunk) for chunk in peeked] == [PAGE, PAGE, 4]
    drive(sim, fs.device.flush())
    assert assert_peek_matches_stream(sim, fs, "book.txt") == peeked


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_is_none_in_analytic_mode(backend):
    sim, ftl = make_ftl(backend=backend, store_data=False)
    fs = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl))
    drive(sim, fs.write_file("book.txt", None, size=3 * PAGE))
    assert fs.peek_pages("book.txt") is None
    drive(sim, fs.device.flush())
    assert fs.peek_pages("book.txt") is None


def test_peek_is_none_through_nvme():
    sim = Simulator()
    ssd = ConventionalSSD(sim, geometry=small_geometry(16 * 1024 * 1024))
    host = HostServer(sim)
    host.mount(ssd.controller)
    drive(sim, host.fs.write_file("book.txt", b"via nvme" * 1000))
    assert host.fs.peek_pages("book.txt") is None

