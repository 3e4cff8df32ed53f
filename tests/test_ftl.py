"""Integration tests for the flash translation layer.

Tests that take the ``backend`` fixture check the logical page device both
backends export.  This module runs them on the page FTL;
``tests/test_zoned_ftl.py`` imports them and overrides the fixture, so each
runs a second time on the zoned FTL.  The remaining tests cover page-only
machinery: capacity, GC watermarks and policies, wear levelling.
"""

import dataclasses

import pytest

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FtlConfig, LogicalIOError, create_backend
from repro.ftl.mapping import UNMAPPED
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=6, pages_per_block=8,
    page_size=2048,
)

#: Each backend's default test config: the zoned backend needs two zones of
#: over-provisioning slack, and a small write buffer makes it destage early.
CONFIGS = {
    "page": FtlConfig(),
    "zoned": FtlConfig(op_ratio=0.34, write_buffer_pages=4),
}


@pytest.fixture(scope="module")
def backend():
    return "page"


def make_ftl(sim=None, geometry=GEO, config=None, rber0=1e-9, backend="page",
             zone_blocks=2, max_open_zones=2, **flash_kw):
    """One backend over a fresh flash array; the zone knobs only reach the
    zoned backend."""
    sim = sim or Simulator()
    flash = FlashArray(sim, geometry=geometry, error_model=BitErrorModel(rber0=rber0), **flash_kw)
    layout = CodewordLayout(data_bytes=min(2048, geometry.page_size))
    ecc = EccEngine(sim, EccConfig(layout=layout))
    knobs = (
        {"zone_blocks": zone_blocks, "max_open_zones": max_open_zones}
        if backend == "zoned" else {}
    )
    ftl = create_backend(backend, sim, flash, ecc, config=config or CONFIGS[backend], **knobs)
    return sim, ftl


def config_for(backend, **overrides):
    """``backend``'s default test config with ``overrides`` applied."""
    return dataclasses.replace(CONFIGS[backend], **overrides)


def drive(sim, gen):
    return sim.run(sim.process(gen))


def test_write_read_roundtrip(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(0, b"alpha")
        yield from ftl.flush()
        data = yield from ftl.read(0)
        return data

    assert drive(sim, flow()) == b"alpha"


def test_read_unwritten_page_returns_none(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        return (yield from ftl.read(5))

    assert drive(sim, flow()) is None


def test_buffered_read_hit_before_flush(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(1, b"buffered")
        data = yield from ftl.read(1)
        return data

    assert drive(sim, flow()) == b"buffered"
    assert ftl.buffer_read_hits == 1


def test_fast_release_hides_program_latency():
    """A buffered write completes far faster than a flash program."""
    sim, ftl = make_ftl()
    timing = ftl.flash.timing

    def flow():
        t0 = sim.now
        yield from ftl.write(0, b"quick")
        return sim.now - t0

    elapsed = drive(sim, flow())
    assert elapsed < timing.t_prog / 10


def test_overwrite_returns_latest(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(2, b"old")
        yield from ftl.flush()
        yield from ftl.write(2, b"new")
        yield from ftl.flush()
        return (yield from ftl.read(2))

    assert drive(sim, flow()) == b"new"
    # old copy invalidated
    assert ftl.page_map.mapped_logical_pages() == 1


def test_trim_unmaps_and_reads_none(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(3, b"gone soon")
        yield from ftl.flush()
        yield from ftl.trim([3])
        return (yield from ftl.read(3))

    assert drive(sim, flow()) is None
    assert ftl.trims == 1


def test_trim_races_inflight_destage_without_resurrection(backend):
    """Trim issued while the destage is in flight must not be undone by the
    destage's map bind completing afterwards."""
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(4, b"never lands")
        yield from ftl.trim([4])
        yield from ftl.flush()
        return (yield from ftl.read(4))

    assert drive(sim, flow()) is None
    assert ftl.page_map.lookup(4) == UNMAPPED


def test_out_of_range_lpn_rejected(backend):
    sim, ftl = make_ftl(backend=backend)
    with pytest.raises(ValueError):
        drive(sim, ftl.read(ftl.logical_pages))

    sim2, ftl2 = make_ftl(backend=backend)
    with pytest.raises(ValueError):
        drive(sim2, ftl2.write(-1, b"x"))


def test_oversized_write_rejected(backend):
    sim, ftl = make_ftl(backend=backend)
    with pytest.raises(ValueError, match="exceeds page size"):
        drive(sim, ftl.write(0, b"z" * (GEO.page_size + 1)))


def test_logical_capacity_respects_overprovisioning():
    _, ftl = make_ftl(config=FtlConfig(op_ratio=0.25))
    assert ftl.logical_pages == int(GEO.pages * 0.75)


def test_gc_reclaims_space_under_overwrite_churn(backend):
    """Overwriting a small working set far beyond physical capacity must
    trigger GC and keep the device writable."""
    sim, ftl = make_ftl(
        config=FtlConfig(op_ratio=0.25, write_buffer_pages=4), backend=backend
    )
    working_set = 16
    rounds = 20  # 320 page writes >> 192 physical pages

    def flow():
        for r in range(rounds):
            for lpn in range(working_set):
                yield from ftl.write(lpn, f"r{r}-p{lpn}".encode())
        yield from ftl.flush()
        datas = []
        for lpn in range(working_set):
            datas.append((yield from ftl.read(lpn)))
        return datas

    datas = drive(sim, flow())
    assert datas == [f"r{rounds-1}-p{lpn}".encode() for lpn in range(working_set)]
    assert ftl.gc.collections > 0
    assert ftl.write_amplification() >= 1.0
    ftl.page_map.check_invariants()


def test_write_amplification_reported():
    sim, ftl = make_ftl(config=FtlConfig(op_ratio=0.25, write_buffer_pages=2))

    def flow():
        for r in range(30):
            for lpn in range(8):
                yield from ftl.write(lpn, b"churn")
        yield from ftl.flush()

    drive(sim, flow())
    wa = ftl.write_amplification()
    assert 1.0 <= wa < 3.0  # relocations cost something but stay bounded


def test_sustained_overwrite_at_full_logical_capacity(backend):
    """Filling every logical page and then overwriting them all must never
    deadlock nor report device-full: with the minimum over-provisioning
    slack (two GC units: blocks, or one-block zones) the collector can
    always relocate."""
    geometry = FlashGeometry(
        channels=1, dies_per_channel=1, planes_per_die=1, blocks_per_plane=8,
        pages_per_block=4, page_size=512,
    )
    sim, ftl = make_ftl(
        geometry=geometry,
        config=FtlConfig(op_ratio=0.3, write_buffer_pages=1),
        backend=backend,
        zone_blocks=1,
    )

    def flow():
        for lpn in range(ftl.logical_pages):
            yield from ftl.write(lpn, b"fill")
        yield from ftl.flush()
        # churn within logical capacity must still work
        for r in range(6):
            for lpn in range(ftl.logical_pages):
                yield from ftl.write(lpn, f"more{r}".encode())
        yield from ftl.flush()
        values = []
        for lpn in range(ftl.logical_pages):
            values.append((yield from ftl.read(lpn)))
        return values

    assert drive(sim, flow()) == [b"more5"] * ftl.logical_pages
    assert not ftl.write_buffer.failures
    assert ftl.gc.collections > 0
    ftl.page_map.check_invariants()


def test_thin_overprovisioning_rejected_at_construction():
    geometry = FlashGeometry(
        channels=1, dies_per_channel=1, planes_per_die=1, blocks_per_plane=4,
        pages_per_block=4, page_size=512,
    )
    with pytest.raises(ValueError, match="slack"):
        make_ftl(geometry=geometry, config=FtlConfig(op_ratio=0.2))


def test_uncorrectable_read_surfaces_as_io_error(backend):
    sim, ftl = make_ftl(rber0=0.4, backend=backend)  # hopeless media

    def flow():
        yield from ftl.write(0, b"doomed")
        yield from ftl.flush()
        yield from ftl.read(0)

    with pytest.raises(LogicalIOError, match="uncorrectable"):
        drive(sim, flow())
    # note: GC relocation of such media would also fail; stats must record it
    assert ftl.uncorrectable_reads >= 1


def test_concurrent_writers_no_protocol_violation(backend):
    """Many parallel writers, past physical capacity, exercise the page
    FTL's per-(stream, die) locks and the zoned FTL's per-zone append slots.
    FlashArray raises on any out-of-order program or reprogram, so a clean
    run proves the ordering discipline."""
    sim, ftl = make_ftl(backend=backend, max_open_zones=3)
    n = ftl.logical_pages

    def writer(lpn):
        for rnd in range(4):
            yield from ftl.write(lpn, f"w{lpn}r{rnd}".encode())

    def flow():
        procs = [sim.process(writer(i)) for i in range(n)]
        yield sim.all_of(procs)
        yield from ftl.flush()
        values = []
        for i in range(n):
            values.append((yield from ftl.read(i)))
        return values

    values = drive(sim, flow())
    assert values == [f"w{i}r3".encode() for i in range(n)]
    assert ftl.flash.stats.programs == ftl.host_pages_programmed + ftl.gc.pages_relocated
    ftl.page_map.check_invariants()


def test_gc_policy_validation():
    with pytest.raises(ValueError, match="unknown gc_policy"):
        FtlConfig(gc_policy="mystery")
    with pytest.raises(ValueError):
        FtlConfig(op_ratio=0.0)


def test_stats_snapshot_keys():
    sim, ftl = make_ftl()

    def flow():
        yield from ftl.write(0, b"x")
        yield from ftl.flush()
        yield from ftl.read(0)

    drive(sim, flow())
    stats = ftl.stats()
    assert stats["host_writes"] == 1
    assert stats["host_reads"] == 1
    assert stats["host_pages_programmed"] == 1
    assert stats["write_amplification"] == 1.0


def test_read_cache_hits_and_latency(backend):
    sim, ftl = make_ftl(config=config_for(backend, read_cache_pages=8), backend=backend)

    def flow():
        yield from ftl.write(0, b"cacheable")
        yield from ftl.flush()
        t0 = sim.now
        yield from ftl.read(0)  # miss: flash
        miss_time = sim.now - t0
        t0 = sim.now
        yield from ftl.read(0)  # hit: DRAM
        hit_time = sim.now - t0
        return miss_time, hit_time

    miss_time, hit_time = drive(sim, flow())
    assert ftl.read_cache_hits == 1
    assert hit_time < miss_time / 10


def test_read_cache_invalidated_by_write(backend):
    sim, ftl = make_ftl(config=config_for(backend, read_cache_pages=8), backend=backend)

    def flow():
        yield from ftl.write(0, b"old")
        yield from ftl.flush()
        yield from ftl.read(0)  # populate cache
        yield from ftl.write(0, b"new")
        yield from ftl.flush()
        return (yield from ftl.read(0))

    assert drive(sim, flow()) == b"new"


def test_read_cache_invalidated_by_trim(backend):
    sim, ftl = make_ftl(config=config_for(backend, read_cache_pages=8), backend=backend)

    def flow():
        yield from ftl.write(0, b"gone")
        yield from ftl.flush()
        yield from ftl.read(0)
        yield from ftl.trim([0])
        return (yield from ftl.read(0))

    assert drive(sim, flow()) is None


def test_read_cache_lru_eviction(backend):
    sim, ftl = make_ftl(config=config_for(backend, read_cache_pages=2), backend=backend)

    def flow():
        for lpn in range(3):
            yield from ftl.write(lpn, f"p{lpn}".encode())
        yield from ftl.flush()
        for lpn in range(3):
            yield from ftl.read(lpn)  # 0 evicted when 2 arrives
        hits_before = ftl.read_cache_hits
        yield from ftl.read(0)  # miss again (evicted)
        yield from ftl.read(2)  # hit (still resident)
        return hits_before

    hits_before = drive(sim, flow())
    assert ftl.read_cache_hits == hits_before + 1
    assert len(ftl._read_cache) <= 2


def test_read_cache_disabled_by_default(backend):
    sim, ftl = make_ftl(backend=backend)

    def flow():
        yield from ftl.write(0, b"x")
        yield from ftl.flush()
        yield from ftl.read(0)
        yield from ftl.read(0)

    drive(sim, flow())
    assert ftl.read_cache_hits == 0
    assert len(ftl._read_cache) == 0


def test_static_wear_leveling_bounds_pe_spread():
    """wl_delta forces cold blocks back into rotation under skewed writes."""
    from repro.workloads import hot_cold

    sim, ftl = make_ftl(config=FtlConfig(op_ratio=0.25, wl_delta=6, write_buffer_pages=8))
    rng = sim.rng("wl-test")
    logical = ftl.logical_pages

    def churn():
        for lpn in range(logical):
            yield from ftl.write(lpn, None)
        for lpn in hot_cold(rng, logical, 6000, hot_fraction=0.1, hot_probability=0.95):
            yield from ftl.write(int(lpn), None)
        yield from ftl.flush()

    drive(sim, churn())
    low, high, _ = ftl.allocator.wear_spread()
    assert ftl.gc.wl_migrations > 0
    assert high - low <= 6 + 4  # threshold plus in-flight slack
    ftl.page_map.check_invariants()
