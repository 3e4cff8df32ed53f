"""The gzip/bzip2 codec lane and the premise it rests on.

``GzipApp``/``Bzip2App`` compress a whole input at once, on a host thread,
from the pages peeked when the minion begins, while the simulator streams
and charges the same pages.  That is only invisible if one-shot output
equals page-streamed output, whatever the chunking, and if every way the
streamed input can leave the peeked one degrades to compressing what was
streamed.  These tests pin both, with the degrade paths counted in
``compress.LANE_COUNTS``.
"""

from __future__ import annotations

import bz2
import zlib
from concurrent.futures import Future

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import ARM_ISA
from repro.apps import compress, default_registry
from repro.apps.base import _PAYLOAD_MEMO_MAX, clear_payload_cache
from repro.cpu import ARM_A53_QUAD, CpuCluster
from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray
from repro.ftl import FlashTranslationLayer
from repro.host import HostServer
from repro.isos import EmbeddedOS, ExtentFileSystem, FlashAccessDevice
from repro.sim import Simulator
from repro.ssd import ConventionalSSD
from repro.ssd.conventional import small_geometry
from tests.test_apps import GEO, TEXT

PAGE = GEO.page_size


def make_os(sim, store_data=True):
    flash = FlashArray(
        sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9), store_data=store_data
    )
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    fs = ExtentFileSystem(sim, FlashAccessDevice(sim, FlashTranslationLayer(sim, flash, ecc)))
    return EmbeddedOS(sim, CpuCluster(sim, ARM_A53_QUAD), fs, default_registry(), isa=ARM_ISA)


def drive(sim, gen):
    return sim.run(sim.process(gen))


def gzip_blob(sim, os_, name="book.txt"):
    status, _ = drive(sim, os_.run(f"gzip {name}"))
    assert status.code == 0
    return drive(sim, os_.fs.read_file(name + ".gz"))


class HeldFuture(Future):
    def result(self, timeout=None):
        assert self.done(), "finish waited on a task the test never ran"
        return super().result(timeout)


class HeldLane:
    """A lane whose tasks run only when the test says so (no threads)."""

    def __init__(self):
        self.tasks: list[tuple[Future, tuple]] = []

    def submit(self, fn, *args):
        future = HeldFuture()
        self.tasks.append((future, (fn, *args)))
        return future

    def run_all(self):
        for future, (fn, *args) in self.tasks:
            if not future.done():
                future.set_result(fn(*args))
        yield from ()


@pytest.fixture
def held_lane(monkeypatch):
    lane = HeldLane()
    monkeypatch.setattr(compress, "_lane", lambda: lane)
    return lane


def on_page_read(fs, index, action):
    """Delegate to ``action()`` (a generator) just before page ``index`` of
    a file on ``fs`` is first read; returns the list it records that in."""
    read_page_of = fs.read_page_of
    fired = []

    def hooked(name, page):
        if page == index and not fired:
            fired.append(page)
            yield from action()
        return (yield from read_page_of(name, page))

    fs.read_page_of = hooked
    return fired


# -- the premise: chunking never changes the output ---------------------------


@st.composite
def chunked(draw):
    """Input bytes (text-like or arbitrary) and a chunking of them that may
    hold 1-byte and empty chunks."""
    data = draw(
        st.binary(max_size=3000)
        | st.text(alphabet="ab \n", max_size=6000).map(str.encode)
    )
    sizes = draw(st.lists(st.integers(0, 700) | st.sampled_from([0, 1]), max_size=24))
    chunks, pos = [], 0
    for size in sizes:
        chunks.append(data[pos : pos + size])
        pos += size
    chunks.append(data[pos:])
    return data, chunks


@settings(max_examples=60, deadline=None)
@given(chunked(), st.sampled_from(["zlib", "bz2"]))
@example((b"abc", [b"a", b"", b"b", b"c", b""]), "zlib")
@example((b"abc", [b"a", b"", b"b", b"c", b""]), "bz2")
@example((b"", [b"", b""]), "zlib")
@example((b"", [b"", b""]), "bz2")
def test_streamed_output_equals_one_shot(data_chunks, family):
    data, chunks = data_chunks
    assert b"".join(chunks) == data
    streaming = zlib.compressobj(6) if family == "zlib" else bz2.BZ2Compressor(9)
    streamed = b"".join(streaming.compress(chunk) for chunk in chunks) + streaming.flush()
    one_shot = zlib.compress(data, 6) if family == "zlib" else bz2.compress(data, 9)
    assert streamed == one_shot == compress._compress_pages(family, chunks)


# -- the lane's happy path --------------------------------------------------------


def test_gzip_compresses_on_the_lane():
    sim = Simulator()
    os_ = make_os(sim)
    drive(sim, os_.fs.write_file("book.txt", TEXT))
    clear_payload_cache()
    assert zlib.decompress(gzip_blob(sim, os_)) == TEXT
    assert compress.LANE_COUNTS == {"tasks": 1}
    # a rerun over the same bytes hits the memo: no second task
    drive(sim, os_.fs.delete("book.txt.gz"))
    assert zlib.decompress(gzip_blob(sim, os_)) == TEXT
    assert compress.LANE_COUNTS == {"tasks": 1}


def test_replicas_with_identical_input_share_one_task(held_lane):
    sim = Simulator()
    replicas = [make_os(sim) for _ in range(2)]
    for os_ in replicas:
        drive(sim, os_.fs.write_file("book.txt", TEXT))
        on_page_read(os_.fs, 1, held_lane.run_all)
    clear_payload_cache()

    def both():
        runs = [sim.process(os_.run("gzip book.txt")) for os_ in replicas]
        statuses = []
        for run in runs:
            statuses.append((yield run))
        return statuses

    statuses = drive(sim, both())
    assert [status.code for status, _ in statuses] == [0, 0]
    assert len(held_lane.tasks) == 1
    assert compress.LANE_COUNTS == {"tasks": 1}
    blobs = [drive(sim, os_.fs.read_file("book.txt.gz")) for os_ in replicas]
    assert blobs[0] == blobs[1] and zlib.decompress(blobs[0]) == TEXT


# -- degrade paths: counted, never silent ---------------------------------------


def test_file_rewritten_mid_stream_falls_back_to_what_was_streamed():
    sim = Simulator()
    os_ = make_os(sim)
    fs = os_.fs
    old = TEXT[: 4 * PAGE]
    new = old.upper()
    drive(sim, fs.write_file("book.txt", old))
    clear_payload_cache()
    streamed = {}
    read_page_of = fs.read_page_of

    def recording(name, page):
        chunk, take = yield from read_page_of(name, page)
        streamed[page] = chunk
        return chunk, take

    fs.read_page_of = recording
    fired = on_page_read(fs, 2, lambda: fs.write_file("book.txt", new))
    blob = gzip_blob(sim, os_)
    assert fired == [2]
    seen = b"".join(streamed[page] for page in sorted(streamed))
    assert seen == old[: 2 * PAGE] + new[2 * PAGE :]
    assert blob == zlib.compress(seen, 6)
    # the prefetched task, then the streamed bytes' own
    assert compress.LANE_COUNTS == {"tasks": 2, "fallbacks": 1}


@pytest.mark.parametrize("disturb", ["clear", "evict"])
def test_in_flight_task_survives_memo_loss(held_lane, disturb):
    """finish reads the app's own future, so losing the memo entry while
    the task runs costs neither the blob nor a fallback."""
    sim = Simulator()
    os_ = make_os(sim)
    drive(sim, os_.fs.write_file("book.txt", TEXT))
    clear_payload_cache()

    def lose_memo():
        [(future, _)] = held_lane.tasks
        assert not future.done()
        [key] = compress._BLOB_CACHE
        if disturb == "clear":
            clear_payload_cache()
        else:
            for index in range(_PAYLOAD_MEMO_MAX):
                compress._BLOB_CACHE.put(("filler", index), None)
        assert key not in compress._BLOB_CACHE
        yield from held_lane.run_all()

    fired = on_page_read(os_.fs, 1, lose_memo)
    assert zlib.decompress(gzip_blob(sim, os_)) == TEXT
    assert fired == [1]
    assert "fallbacks" not in compress.LANE_COUNTS


def test_host_gzip_over_nvme_takes_the_buffered_path():
    """The NVMe path cannot peek: the app buffers the streamed pages and
    waits for their blob at finish."""
    sim = Simulator()
    host = HostServer(sim)
    os_ = host.mount(ConventionalSSD(sim, geometry=small_geometry(16 * 1024 * 1024)).controller)
    drive(sim, os_.fs.write_file("book.txt", TEXT))
    clear_payload_cache()
    assert zlib.decompress(gzip_blob(sim, os_)) == TEXT
    assert compress.LANE_COUNTS == {"tasks": 1}


def test_analytic_input_moves_no_bytes():
    """Analytic pages peek as ``None`` and stream as ``None``: no task."""
    sim = Simulator()
    os_ = make_os(sim, store_data=False)
    drive(sim, os_.fs.write_file("book.txt", None, size=3 * PAGE))
    clear_payload_cache()
    status, _ = drive(sim, os_.run("gzip book.txt"))
    assert status.code == 0
    assert compress.LANE_COUNTS == {}
