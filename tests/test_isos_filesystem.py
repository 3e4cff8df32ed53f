"""Unit tests for the extent filesystem and block devices."""

import pytest

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer
from repro.isos import ExtentFileSystem, FlashAccessDevice, FsError
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=8, pages_per_block=8,
    page_size=2048,
)


def make_fs(sim=None, store_data=True):
    sim = sim or Simulator()
    flash = FlashArray(
        sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9), store_data=store_data
    )
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    ftl = FlashTranslationLayer(sim, flash, ecc)
    device = FlashAccessDevice(sim, ftl)
    return sim, ExtentFileSystem(sim, device)


def drive(sim, gen):
    return sim.run(sim.process(gen))


def test_write_read_roundtrip_small():
    sim, fs = make_fs()
    drive(sim, fs.write_file("hello.txt", b"hello filesystem"))
    assert drive(sim, fs.read_file("hello.txt")) == b"hello filesystem"


def test_write_read_multi_page():
    sim, fs = make_fs()
    data = bytes(range(256)) * 40  # 10240 B > 5 pages
    drive(sim, fs.write_file("big.bin", data))
    assert fs.page_count("big.bin") == 5
    assert drive(sim, fs.read_file("big.bin")) == data


def test_stat_and_listdir():
    sim, fs = make_fs()
    drive(sim, fs.write_file("b.txt", b"bb"))
    drive(sim, fs.write_file("a.txt", b"a"))
    assert fs.listdir() == ["a.txt", "b.txt"]
    assert fs.stat("a.txt").size == 1
    assert fs.exists("b.txt")
    assert not fs.exists("c.txt")


def test_missing_file_raises():
    sim, fs = make_fs()
    with pytest.raises(FsError, match="no such file"):
        fs.stat("ghost")
    with pytest.raises(FsError, match="no such file"):
        drive(sim, fs.read_file("ghost"))
    with pytest.raises(FsError):
        drive(sim, fs.delete("ghost"))


def test_invalid_names_rejected():
    sim, fs = make_fs()
    for bad in ("", "a/b", "nul\x00"):
        with pytest.raises(FsError, match="invalid file name"):
            drive(sim, fs.write_file(bad, b"x"))


def test_overwrite_replaces_and_frees():
    sim, fs = make_fs()
    drive(sim, fs.write_file("f", b"x" * 3 * GEO.page_size))
    before = fs.free_pages
    drive(sim, fs.write_file("f", b"y"))
    assert drive(sim, fs.read_file("f")) == b"y"
    assert fs.free_pages == before + 2  # shrank from 3 pages to 1


def test_delete_frees_pages():
    sim, fs = make_fs()
    before = fs.free_pages
    drive(sim, fs.write_file("f", b"z" * GEO.page_size * 2))
    drive(sim, fs.delete("f"))
    assert fs.free_pages == before
    assert not fs.exists("f")


def test_append_grows_file():
    sim, fs = make_fs()
    drive(sim, fs.write_file("log", b"A" * GEO.page_size))
    drive(sim, fs.append("log", b"B" * GEO.page_size))
    assert fs.stat("log").size == 2 * GEO.page_size
    data = drive(sim, fs.read_file("log"))
    assert data == b"A" * GEO.page_size + b"B" * GEO.page_size


def test_no_space_error():
    sim, fs = make_fs()
    too_big = (fs.free_pages + 1) * GEO.page_size
    with pytest.raises(FsError, match="no space"):
        drive(sim, fs.write_file("huge", None, size=too_big))


def test_analytic_mode_tracks_sizes_without_data():
    sim, fs = make_fs(store_data=False)
    drive(sim, fs.write_file("ghostly", None, size=3 * GEO.page_size + 7))
    assert fs.stat("ghostly").size == 3 * GEO.page_size + 7
    assert fs.page_count("ghostly") == 4
    assert drive(sim, fs.read_file("ghostly")) is None


def test_read_page_of_returns_chunks_with_valid_len():
    sim, fs = make_fs()
    data = b"Q" * (GEO.page_size + 100)
    drive(sim, fs.write_file("f", data))
    chunk0, len0 = drive(sim, fs.read_page_of("f", 0))
    chunk1, len1 = drive(sim, fs.read_page_of("f", 1))
    assert (len0, len1) == (GEO.page_size, 100)
    assert chunk0 == b"Q" * GEO.page_size
    assert chunk1 == b"Q" * 100
    with pytest.raises(FsError, match="out of range"):
        drive(sim, fs.read_page_of("f", 2))


def test_stream_file_covers_whole_content():
    sim, fs = make_fs()
    data = b"streamed" * 1000
    drive(sim, fs.write_file("s", data))
    chunks = drive(sim, fs.stream_file("s"))
    assert b"".join(c for c, _ in chunks) == data
    assert sum(n for _, n in chunks) == len(data)


def test_short_last_page_reads_back_the_same_bytes():
    sim, fs = make_fs()
    data = bytes(range(256)) * 9  # 2304 B: one full page and a 256 B tail
    drive(sim, fs.write_file("tail.bin", data))
    drive(sim, fs.device.flush())
    expected = [(data[:GEO.page_size], GEO.page_size), (data[GEO.page_size:], 256)]
    assert [drive(sim, fs.read_page_of("tail.bin", i)) for i in range(2)] == expected
    assert drive(sim, fs.stream_file("tail.bin")) == expected
    assert drive(sim, fs.read_file("tail.bin")) == data


def test_rereading_a_page_returns_the_stored_object():
    """The grep/gawk scan memo relies on this: CPython caches a bytes
    object's hash, so a page that reaches the apps as the same object is
    hashed once, not once per request."""
    sim, fs = make_fs()
    drive(sim, fs.write_file("f", b"Q" * (GEO.page_size + 100)))
    drive(sim, fs.device.flush())
    for index in range(2):
        first, _ = drive(sim, fs.read_page_of("f", index))
        again, _ = drive(sim, fs.read_page_of("f", index))
        assert first is again


def test_persist_and_load_roundtrip():
    sim, fs = make_fs()
    drive(sim, fs.write_file("keep.txt", b"persistent data"))
    drive(sim, fs.persist())
    # simulate a reboot: fresh FS object over the same device
    reborn = ExtentFileSystem(sim, fs.device)
    drive(sim, reborn.load())
    assert reborn.listdir() == ["keep.txt"]
    assert drive(sim, reborn.read_file("keep.txt")) == b"persistent data"
    # freed-page accounting survives
    assert reborn.free_pages == fs.free_pages


def test_meta_pages_validation():
    sim, fs = make_fs()
    with pytest.raises(ValueError):
        ExtentFileSystem(sim, fs.device, meta_pages=0)
