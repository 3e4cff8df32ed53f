"""Unit and property tests for the zoned (ZNS-style) translation backend.

The logical page device contract is tested once, in ``tests/test_ftl.py``
and ``tests/test_ftl_properties.py``; this module imports those tests and
overrides their ``backend`` fixture, so pytest collects and runs each of
them here a second time on the zoned FTL.

The zone-specific properties tested here:

- **write-pointer monotonicity per zone** — a zone's pointer only ever
  advances between resets; any decrease coincides with a GC reset;
- **read-after-write across resets** — the device agrees with a dict oracle
  through arbitrary write/read/trim/flush interleavings and the collector's
  zone resets between them;
- **copy-forward preserves live data** — GC churn never changes what a
  mapped logical page reads back;
- **append never overwrites** — the NAND array raises ``FlashOpError`` on
  any reprogram or out-of-order program, so a clean run under concurrent
  appends (``test_concurrent_writers_no_protocol_violation``) *is* the
  proof.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import apply_overrides, build_node, preset
from repro.config.codec import ConfigError
from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FtlConfig, LogicalIOError, ZonedFtl, ZoneState, create_backend
from repro.sim import Simulator
from tests.test_ftl import GEO, drive, make_ftl
from tests.test_obs_metrics import sample

# The backend-contract tests, collected again here against the zoned
# ``backend`` fixture below.
from tests.test_ftl import (  # noqa: F401
    test_buffered_read_hit_before_flush,
    test_concurrent_writers_no_protocol_violation,
    test_gc_reclaims_space_under_overwrite_churn,
    test_out_of_range_lpn_rejected,
    test_oversized_write_rejected,
    test_overwrite_returns_latest,
    test_read_cache_disabled_by_default,
    test_read_cache_hits_and_latency,
    test_read_cache_invalidated_by_trim,
    test_read_cache_invalidated_by_write,
    test_read_cache_lru_eviction,
    test_read_unwritten_page_returns_none,
    test_sustained_overwrite_at_full_logical_capacity,
    test_trim_races_inflight_destage_without_resurrection,
    test_trim_unmaps_and_reads_none,
    test_uncorrectable_read_surfaces_as_io_error,
    test_write_read_roundtrip,
)
from tests.test_ftl_properties import (  # noqa: F401
    oracle_mismatches,
    test_concurrent_writers_agree_with_oracle,
    test_ftl_agrees_with_dict_oracle,
)

CONFIG = FtlConfig(op_ratio=0.34, write_buffer_pages=4)


@pytest.fixture(scope="module")
def backend():
    return "zoned"


def make_zoned(**kw):
    return make_ftl(backend="zoned", **kw)


def test_construction_validation():
    sim = Simulator()
    flash = FlashArray(sim, geometry=GEO)
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    with pytest.raises(ValueError):
        ZonedFtl(sim, flash, ecc, zone_blocks=0)
    with pytest.raises(ValueError):
        ZonedFtl(sim, flash, ecc, max_open_zones=0)
    with pytest.raises(ValueError):
        # 24 blocks / 12 per zone = 2 zones < 3
        ZonedFtl(sim, flash, ecc, config=CONFIG, zone_blocks=12)
    with pytest.raises(ValueError, match="slack"):
        # slack below two zones of 4 blocks each
        ZonedFtl(sim, flash, ecc, config=FtlConfig(op_ratio=0.05), zone_blocks=4)


PAGE_ONLY_KNOBS = [
    ("gc_policy", "cost-benefit"),
    ("wl_delta", 4),
    ("gc_low_watermark", 2),
    ("gc_high_watermark", 8),
]


@pytest.mark.parametrize("knob, value", PAGE_ONLY_KNOBS)
def test_page_only_knobs_rejected_on_zoned(knob, value):
    """The zoned backend has no GC policy, wear levelling or block
    watermarks: setting one is an error naming it, in either override
    order and on direct construction, never a silent ignore."""
    smoke = preset("smoke")
    for overrides in (
        ["device.backend=zoned", f"ftl.{knob}={value}"],
        [f"ftl.{knob}={value}", "device.backend=zoned"],
    ):
        with pytest.raises(ConfigError, match=f"ftl.{knob}"):
            apply_overrides(smoke, overrides)
    # the page backend takes the knob, and the zoned one its own ftl knobs
    apply_overrides(smoke, [f"ftl.{knob}={value}"])
    apply_overrides(smoke, ["device.backend=zoned", "ftl.read_cache_pages=8"])

    sim = Simulator()
    flash = FlashArray(sim, geometry=GEO)
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    config = FtlConfig(op_ratio=0.34, **{knob: value})
    with pytest.raises(ValueError, match=f"ftl.{knob}"):
        ZonedFtl(sim, flash, ecc, config=config, zone_blocks=2)


def test_registry_constructs_zoned_backend():
    sim = Simulator()
    flash = FlashArray(sim, geometry=GEO)
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    ftl = create_backend("zoned", sim, flash, ecc, config=CONFIG, zone_blocks=2)
    assert isinstance(ftl, ZonedFtl)
    with pytest.raises(ValueError):
        create_backend("hybrid", sim, flash, ecc)
    with pytest.raises(TypeError):
        create_backend("page", sim, flash, ecc, zone_blocks=2)


def test_stats_and_health_keys():
    sim, ftl = make_zoned()

    def flow():
        for lpn in range(8):
            yield from ftl.write(lpn, bytes([lpn]) * 8)
        yield from ftl.flush()

    drive(sim, flow())
    stats = ftl.stats()
    # the shared snapshot keys the page FTL also reports, in erase blocks
    for key in ("host_reads", "host_writes", "host_pages_programmed",
                "gc_collections", "write_amplification", "free_blocks",
                "bad_blocks", "uncorrectable_reads", "wl_migrations"):
        assert key in stats
    # the zoned backend has no patrol scrubber
    assert "scrub_refreshes" not in stats
    assert stats["free_blocks"] == ftl.free_units * ftl.zone_blocks
    assert stats["bad_blocks"] == 0
    states = [stats[f"zones_{s}"] for s in ("empty", "open", "full", "offline")]
    assert sum(states) == ftl.zone_count == 12
    assert stats["zones_open"] > 0 and stats["zone_resets"] == 0


def test_zoned_node_exports_ftl_metrics():
    """With ``obs.metrics`` on, a zoned device reports the same ``ftl.*``
    series as a page device, and the GC counter agrees with ``stats()``."""
    node = build_node(preset("smoke", ("device.backend=zoned", "obs.metrics=true")))
    sim, ftl = node.sim, node.compstors[0].ftl
    assert isinstance(ftl, ZonedFtl)

    def flow():
        # 2048 page writes over a 1024-page device, each round twice the
        # 256-page write buffer: the collector must run
        for rnd in range(4):
            for lpn in range(512):
                yield from ftl.write(lpn, bytes([rnd]))
        yield from ftl.flush()
        for lpn in range(0, 512, 8):
            assert (yield from ftl.read(lpn)) == bytes([3])

    drive(sim, flow())
    metrics = ftl.metrics
    for name in ("ftl.host_reads", "ftl.host_writes", "ftl.write_buffer.destages"):
        assert sample(metrics[name], device=ftl.name) > 0, name
    collections = ftl.stats()["gc_collections"]
    assert collections > 0
    assert sample(metrics["ftl.gc.collections"], device=ftl.name) == collections


# -- zone semantics ---------------------------------------------------------


def _fill_until_a_zone_is_full(ftl, payload):
    """Write zone-sized batches until some zone closes; returns the full
    zones (appends round-robin over the open slots)."""
    for batch in range(2):
        for lpn in range(batch * ftl.zone_pages, (batch + 1) * ftl.zone_pages):
            yield from ftl.write(lpn, payload + b"%d" % lpn)
        yield from ftl.flush()
        full = [z for z in range(ftl.zone_count) if ftl._zone_state[z] == ZoneState.FULL]
        if full:
            return full
    raise AssertionError("no zone filled")


def test_illegal_zone_transition_raises():
    """Only the lifecycle table's edges are legal: a reset of an EMPTY
    zone (which would put it on the free list twice) raises and changes
    nothing, as do the other edges outside the table."""
    sim, ftl = make_zoned()
    zone = ftl._free[-1]
    for to in (ZoneState.EMPTY, ZoneState.FULL, ZoneState.OFFLINE):
        with pytest.raises(RuntimeError, match=f"EMPTY -> {to.name}"):
            ftl._transition(zone, to)
    assert list(ftl._free).count(zone) == 1
    assert ftl.free_units == ftl.zone_count and ftl.zone_resets == 0

    ftl._transition(zone, ZoneState.OPEN, (ftl.HOST, 0))
    with pytest.raises(RuntimeError, match="OPEN -> EMPTY"):
        ftl._transition(zone, ZoneState.EMPTY)
    with pytest.raises(RuntimeError, match="OPEN -> OPEN"):
        ftl._transition(zone, ZoneState.OPEN, (ftl.HOST, 1))
    assert ftl._open[ftl.HOST] == [zone, None] and zone not in ftl._free


def retire_by_churn(ftl, payload):
    """Fail a block of a FULL zone and overwrite the zone's live pages, then
    churn overwrites until the collector picks the zone, erases it and
    takes it offline; returns the zone."""
    victim = (yield from _fill_until_a_zone_is_full(ftl, payload))[0]
    ftl.flash.mark_block_failed(victim * ftl.zone_blocks)
    for lpn in list(ftl._unit_lpns(victim)):
        yield from ftl.write(lpn, payload)
    for rnd in range(2 * ftl.zone_count):  # a round writes one zone's worth
        if ftl._zone_state[victim] == ZoneState.OFFLINE:
            return victim
        for lpn in range(ftl.zone_pages):
            yield from ftl.write(lpn, payload + b"%d" % rnd)
        yield from ftl.flush()
    raise AssertionError(f"the collector never took zone {victim}")


def test_grown_bad_block_takes_zone_offline():
    sim, ftl = make_zoned()

    def flow():
        victim = yield from retire_by_churn(ftl, b"fill")
        assert ftl._zone_state[victim] == ZoneState.OFFLINE

    drive(sim, flow())
    assert ftl.zones_retired == 1
    assert ftl.stats()["bad_blocks"] == ftl.zone_blocks


def test_device_full_surfaces_as_logical_io_error():
    """When nothing is reclaimable the stall loop gives up with a
    device-full ``LogicalIOError`` instead of hanging; like the page FTL,
    the failed destage is recorded on the write buffer rather than killing
    the flusher."""
    geometry = FlashGeometry(
        channels=1, dies_per_channel=1, planes_per_die=1, blocks_per_plane=4,
        pages_per_block=4, page_size=512,
    )
    sim = Simulator(seed=3)
    flash = FlashArray(sim, geometry=geometry)
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=512)))
    ftl = ZonedFtl(sim, flash, ecc,
                   config=FtlConfig(op_ratio=0.5, write_buffer_pages=2),
                   zone_blocks=1, max_open_zones=1)

    def flow():
        # half the pages are logical; overwrite far beyond physical space
        # while disabling reclamation by retiring zones via erase failures
        for block in range(geometry.blocks):
            flash.mark_block_failed(block)
        for rnd in range(geometry.pages * 4):
            yield from ftl.write(rnd % ftl.logical_pages, b"x")
            yield from ftl.flush()

    drive(sim, flow())
    assert ftl.write_buffer.failures, "device full never surfaced"
    lpn, exc = ftl.write_buffer.failures[0]
    assert isinstance(exc, LogicalIOError)
    assert "device full" in str(exc)


# -- properties -------------------------------------------------------------

PGEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=6,
    pages_per_block=4, page_size=512,
)
PCONF = FtlConfig(op_ratio=0.34, write_buffer_pages=4)
# 12 blocks / 2 per zone = 6 zones of 8 pages; int(48 * (1 - 0.34)) = 31
PLOGICAL = int((12 // 2) * (2 * 4) * (1 - 0.34))


def make_property_ftl(seed=1):
    sim = Simulator(seed=seed)
    flash = FlashArray(sim, geometry=PGEO, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=512)))
    ftl = ZonedFtl(sim, flash, ecc, config=PCONF, zone_blocks=2, max_open_zones=2)
    return sim, ftl


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, PLOGICAL - 1),
                  st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("read"), st.integers(0, PLOGICAL - 1), st.just(b"")),
        st.tuples(st.just("trim"), st.integers(0, PLOGICAL - 1), st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_zoned_agrees_with_dict_oracle_across_resets(ops):
    """read-after-write across resets + copy-forward preserves live data.

    Every zone reset here is the collector's, after it copied the victim's
    live pages forward, so every page — including pages GC relocated in
    between — must read back byte-identical.
    """
    sim, ftl = make_property_ftl()
    mismatches, _ = oracle_mismatches(sim, ftl, ops)
    assert mismatches == []


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_write_pointer_monotone_between_resets(ops):
    """A zone's write pointer never decreases except through a reset (GC's
    post-collection erase)."""
    sim, ftl = make_property_ftl()
    violations: list[tuple] = []

    def snapshot():
        return ftl._zone_wp.tolist(), ftl.zone_resets + ftl.zones_retired

    def driver():
        prev_wp, prev_resets = snapshot()
        for op, arg, payload in ops:
            if op == "write":
                yield from ftl.write(arg, payload)
            elif op == "read":
                try:
                    yield from ftl.read(arg)
                except LogicalIOError:
                    pass
            elif op == "trim":
                yield from ftl.trim([arg])
            else:
                yield from ftl.flush()
            wp, resets = snapshot()
            for zone in range(ftl.zone_count):
                if wp[zone] < prev_wp[zone] and resets == prev_resets:
                    violations.append((zone, prev_wp[zone], wp[zone]))
            prev_wp, prev_resets = wp, resets

    sim.run(sim.process(driver()))
    assert violations == []


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), rounds=st.integers(2, 6))
def test_copy_forward_preserves_live_data_under_churn(seed, rounds):
    """Force collections with overwrite churn; every live page survives."""
    sim, ftl = make_property_ftl(seed)
    survivors: list = []

    def driver():
        for rnd in range(rounds):
            for lpn in range(ftl.logical_pages):
                yield from ftl.write(lpn, bytes([rnd, lpn % 251]))
        yield from ftl.flush()
        for lpn in range(ftl.logical_pages):
            survivors.append((yield from ftl.read(lpn)))

    sim.run(sim.process(driver()))
    assert survivors == [
        bytes([rounds - 1, lpn % 251]) for lpn in range(ftl.logical_pages)
    ]
