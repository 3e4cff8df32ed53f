"""Full-stack power-cycle: filesystem + object store survive via FTL SPOR.

The chain under test: files written through the in-storage filesystem land
on NAND with OOB stamps; after a power cut the FTL rebuilds its map from
the media, the filesystem reloads its metadata region, and every
content-addressed block the dedup object store wrote reads back intact —
everything a real drive must reassemble at boot.
"""

import hashlib
import random

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer, FtlConfig
from repro.isos import ExtentFileSystem, FlashAccessDevice
from repro.objstore import ChunkParams, DedupObjectStore
from repro.objstore.dedup import BLOCK_PREFIX
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=8,
    pages_per_block=8, page_size=2048,
)
CONFIG = FtlConfig(op_ratio=0.25)
ECC = EccConfig(layout=CodewordLayout(data_bytes=2048))


def build_stack(sim, flash, name="ftl", config=CONFIG, ecc_config=ECC):
    ecc = EccEngine(sim, ecc_config, name=f"{name}.ecc")
    ftl = FlashTranslationLayer(sim, flash, ecc, config=config, name=name)
    fs = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl))
    return ftl, fs


def drive(sim, gen):
    return sim.run(sim.process(gen))


def test_filesystem_survives_power_cycle():
    sim = Simulator(seed=13)
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ftl, fs = build_stack(sim, flash)

    def first_life():
        yield from fs.write_file("book.txt", b"chapter one " * 500)
        yield from fs.write_file("notes.md", b"remember the fox\n")
        yield from fs.persist()  # also flushes

    drive(sim, first_life())

    # --- power cut: all DRAM state gone, media survives ---
    ftl2, _ = build_stack(sim, flash, name="ftl2")
    drive(sim, ftl2.recover_from_flash())
    fs2 = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl2))
    drive(sim, fs2.load())

    assert fs2.listdir() == ["book.txt", "notes.md"]
    assert drive(sim, fs2.read_file("notes.md")) == b"remember the fox\n"
    assert drive(sim, fs2.read_file("book.txt")) == b"chapter one " * 500


def test_object_store_survives_power_cycle():
    """Dedup PUTs on a one-device fleet, then a power cut: every block file
    the rebuilt stack finds reads back with the SHA-1 it is named by."""
    fleet = build_fleet(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=1, devices_per_node=1),
    ))
    sim = fleet.sim
    ssd = fleet.nodes[0].compstors[0]
    store = DedupObjectStore(
        fleet, params=ChunkParams(min_size=64, avg_size=256, max_size=1024), replicas=1
    )
    shared = random.Random(1).randbytes(4096)

    def first_life():
        for i in range(4):  # a shared prefix, so later PUTs dedup against it
            yield from store.put(f"obj{i}", shared + random.Random(10 + i).randbytes(2048))
        yield from ssd.fs.persist()

    drive(sim, first_life())
    assert store.stats.chunks_deduped > 0
    blocks = sorted(n for n in ssd.fs.listdir() if n.startswith(BLOCK_PREFIX))
    assert blocks

    # --- power cut: all DRAM state gone, media survives ---
    ftl2, _ = build_stack(sim, ssd.flash, name="ftl2",
                          config=ssd.ftl.config, ecc_config=ssd.ecc.config)
    drive(sim, ftl2.recover_from_flash())
    fs2 = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl2))
    drive(sim, fs2.load())

    assert sorted(n for n in fs2.listdir() if n.startswith(BLOCK_PREFIX)) == blocks
    for name in blocks:
        blob = drive(sim, fs2.read_file(name))
        assert hashlib.sha1(blob).hexdigest() == name[len(BLOCK_PREFIX):]


def test_unpersisted_fs_metadata_is_lost_but_recoverable_data_remains():
    """Without fs.persist() the namespace is gone even though page data
    survived — exactly the contract of metadata journaling."""
    sim = Simulator(seed=15)
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ftl, fs = build_stack(sim, flash)

    def first_life():
        yield from fs.write_file("orphan.txt", b"data without metadata")
        yield from ftl.flush()  # data durable, metadata not persisted

    drive(sim, first_life())

    ftl2, _ = build_stack(sim, flash, name="ftl2")
    mapped = drive(sim, ftl2.recover_from_flash())
    assert mapped > 0  # the logical pages are all still there
    fs2 = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl2))
    drive(sim, fs2.load())
    assert fs2.listdir() == []  # ...but the namespace never made it to media
