"""Tests for the background patrol scrubber (retention management)."""

import pytest

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer, FtlConfig
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=8, pages_per_block=8,
    page_size=2048,
)


def make_ftl(scrub_interval=0.5, tau=2.0, rber0=1e-7, margin=0.5, capability=40):
    """Aggressively short retention constant so tests run in seconds of
    simulated time instead of months."""
    sim = Simulator()
    flash = FlashArray(
        sim, geometry=GEO,
        error_model=BitErrorModel(rber0=rber0, tau=tau),
    )
    ecc = EccEngine(
        sim, EccConfig(layout=CodewordLayout(data_bytes=2048), capability=capability)
    )
    ftl = FlashTranslationLayer(
        sim, flash, ecc,
        config=FtlConfig(scrub_interval=scrub_interval, scrub_margin=margin),
    )
    return sim, ftl


def drive(sim, gen):
    return sim.run(sim.process(gen))


def fill(sim, ftl, pages=16):
    def flow():
        for lpn in range(pages):
            yield from ftl.write(lpn, b"cold data")
        yield from ftl.flush()

    drive(sim, flow())


def test_scrubber_refreshes_aging_blocks():
    sim, ftl = make_ftl()
    fill(sim, ftl)
    # age the data far beyond the margin: expected errors blow past t/2
    sim.run(until=sim.now + 60.0)
    assert ftl.scrubber.blocks_refreshed > 0
    assert ftl.scrubber.blocks_scanned > 0


def test_refresh_resets_retention_clock():
    sim, ftl = make_ftl()
    fill(sim, ftl, pages=8)
    sim.run(until=sim.now + 30.0)
    # after refreshing, no block holding data (closed or open) is at risk
    scrubber = ftl.scrubber
    closed, open_ = scrubber._patrol_targets()
    assert not any(scrubber._block_at_risk(block) for block in closed + open_)


def test_scrubbed_data_still_readable():
    sim, ftl = make_ftl()
    fill(sim, ftl, pages=8)
    sim.run(until=sim.now + 30.0)
    assert ftl.scrubber.blocks_refreshed > 0

    def readback():
        out = []
        for lpn in range(8):
            out.append((yield from ftl.read(lpn)))
        return out

    assert drive(sim, readback()) == [b"cold data"] * 8
    ftl.page_map.check_invariants()


def test_scrubber_prevents_uncorrectable_reads():
    """With scrubbing on, very old data survives; with scrubbing off, the
    same read pattern hits uncorrectable errors."""
    from repro.ftl import LogicalIOError

    def age_and_read(scrub_interval):
        sim, ftl = make_ftl(
            scrub_interval=scrub_interval, tau=1.0, rber0=2e-5, capability=60,
        )
        fill(sim, ftl, pages=8)
        sim.run(until=sim.now + 25.0)  # ~25 tau of retention without refresh

        def readback():
            for lpn in range(8):
                yield from ftl.read(lpn)

        try:
            drive(sim, readback())
            return ftl.uncorrectable_reads, None
        except LogicalIOError as exc:
            return ftl.uncorrectable_reads, exc

    failures_without, error = age_and_read(scrub_interval=None)
    assert failures_without > 0 and error is not None

    failures_with, error = age_and_read(scrub_interval=0.5)
    assert failures_with == 0 and error is None


def test_scrubber_disabled_by_none_interval():
    sim, ftl = make_ftl(scrub_interval=None)
    fill(sim, ftl)
    sim.run(until=sim.now + 60.0)
    assert ftl.scrubber.blocks_refreshed == 0
    assert ftl.scrubber.process is None


def test_scrubber_ignores_fully_invalid_blocks():
    sim, ftl = make_ftl()
    fill(sim, ftl, pages=8)

    def invalidate():
        yield from ftl.trim(list(range(8)))

    drive(sim, invalidate())
    sim.run(until=sim.now + 30.0)
    # nothing valid to refresh: GC may erase, the scrubber must not "refresh"
    assert ftl.scrubber.blocks_refreshed == 0


def test_scrubber_and_gc_do_not_double_reclaim():
    """Churn + aggressive scrubbing together must preserve map invariants."""
    sim, ftl = make_ftl(scrub_interval=0.2, tau=1.0)
    logical = min(24, ftl.logical_pages)

    def churn():
        for round_ in range(6):
            for lpn in range(logical):
                yield from ftl.write(lpn, f"r{round_}".encode())
            yield from ftl.flush()
            yield sim.timeout(1.0)

    drive(sim, churn())
    sim.run(until=sim.now + 5.0)
    ftl.page_map.check_invariants()

    def readback():
        out = []
        for lpn in range(logical):
            out.append((yield from ftl.read(lpn)))
        return out

    assert drive(sim, readback()) == [b"r5"] * logical


def test_scrubber_parameter_validation():
    sim, ftl = make_ftl()
    from repro.ftl import PatrolScrubber

    with pytest.raises(ValueError):
        PatrolScrubber(ftl, interval=0)
    with pytest.raises(ValueError):
        PatrolScrubber(ftl, margin=0)
    with pytest.raises(ValueError):
        PatrolScrubber(ftl, margin=1.5)


def test_scrubber_skips_blocks_reclaimed_during_its_pass():
    """A pass lists its targets once, then yields inside each refresh; a
    block the collector reclaims meanwhile must not be refreshed (and
    released) a second time while it is free."""
    sim = Simulator(0)
    geo = FlashGeometry(
        channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=6,
        pages_per_block=8, page_size=2048,
    )
    flash = FlashArray(sim, geometry=geo, error_model=BitErrorModel(rber0=1e-6, tau=0.01))
    ecc = EccEngine(
        sim, EccConfig(layout=CodewordLayout(data_bytes=2048), capability=40)
    )
    ftl = FlashTranslationLayer(
        sim, flash, ecc,
        config=FtlConfig(scrub_interval=1e-3, scrub_margin=0.01, op_ratio=0.3),
    )
    rng = sim.rng("w")
    hot = int(ftl.logical_pages * 0.8)
    last = {}

    def churn():
        for i in range(2000):
            lpn = int(rng.integers(hot))
            data = f"w{i}".encode()
            yield from ftl.write(lpn, data)
            last[lpn] = data
            if i % 7 == 6:
                yield sim.timeout(rng.random() * 2e-3)
        yield from ftl.flush()

    drive(sim, churn())
    assert ftl.scrubber.blocks_refreshed > 0

    def readback():
        out = {}
        for lpn in sorted(last):
            out[lpn] = yield from ftl.read(lpn)
        return out

    assert drive(sim, readback()) == last
    ftl.page_map.check_invariants()
