"""Sudden-power-off recovery (SPOR) tests.

A 'power cut' is modelled by constructing a fresh FTL over the same flash
array: all DRAM state (map, write buffer, allocator) vanishes; only the
NAND contents and OOB stamps survive.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer, FtlConfig
from repro.ftl.mapping import UNMAPPED
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=8, pages_per_block=4,
    page_size=512,
)
CONFIG = FtlConfig(op_ratio=0.3, write_buffer_pages=4, gc_low_watermark=1,
                   gc_high_watermark=2)


def make_stack():
    sim = Simulator(seed=6)
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=512)))
    ftl = FlashTranslationLayer(sim, flash, ecc, config=CONFIG)
    return sim, flash, ecc, ftl


def power_cycle(sim, flash, ecc):
    """Fresh FTL over the surviving media; runs recovery."""
    reborn = FlashTranslationLayer(sim, flash, ecc, config=CONFIG, name="ftl2")
    mapped = sim.run(sim.process(reborn.recover_from_flash()))
    return reborn, mapped


def drive(sim, gen):
    return sim.run(sim.process(gen))


def test_flushed_data_survives_power_cut():
    sim, flash, ecc, ftl = make_stack()

    def workload():
        for lpn in range(10):
            yield from ftl.write(lpn, f"v{lpn}".encode())
        yield from ftl.flush()

    drive(sim, workload())
    reborn, mapped = power_cycle(sim, flash, ecc)
    assert mapped == 10

    def readback():
        out = []
        for lpn in range(10):
            out.append((yield from reborn.read(lpn)))
        return out

    assert drive(sim, readback()) == [f"v{lpn}".encode() for lpn in range(10)]
    reborn.page_map.check_invariants()


def test_latest_version_wins_after_overwrites_and_gc():
    sim, flash, ecc, ftl = make_stack()

    def workload():
        for r in range(8):  # enough churn to force GC relocations
            for lpn in range(8):
                yield from ftl.write(lpn, f"r{r}p{lpn}".encode())
        yield from ftl.flush()

    drive(sim, workload())
    assert ftl.gc.collections > 0  # relocated copies exist on the media
    reborn, mapped = power_cycle(sim, flash, ecc)
    assert mapped == 8

    def readback():
        out = []
        for lpn in range(8):
            out.append((yield from reborn.read(lpn)))
        return out

    assert drive(sim, readback()) == [f"r7p{lpn}".encode() for lpn in range(8)]


def test_unflushed_buffer_contents_are_lost():
    """The cost of fast-release: what never left DRAM is gone."""
    sim, flash, ecc, ftl = make_stack()

    def workload():
        yield from ftl.write(0, b"durable")
        yield from ftl.flush()
        yield from ftl.write(1, b"doomed")  # buffered, never flushed
        # power cut now: no flush

    drive(sim, workload())
    # ensure lpn 1 truly never destaged in this interleaving
    if ftl.page_map.lookup(1) != UNMAPPED:
        pytest.skip("destage won the race in this schedule")
    reborn, _ = power_cycle(sim, flash, ecc)

    def readback():
        a = yield from reborn.read(0)
        b = yield from reborn.read(1)
        return a, b

    a, b = drive(sim, readback())
    assert a == b"durable"
    assert b is None


def test_recovery_restores_write_sequence():
    sim, flash, ecc, ftl = make_stack()

    def workload():
        for lpn in range(5):
            yield from ftl.write(lpn, b"x")
        yield from ftl.flush()

    drive(sim, workload())
    old_seq = ftl._write_seq
    reborn, _ = power_cycle(sim, flash, ecc)
    assert reborn._write_seq == old_seq

    # new writes after recovery continue the sequence and win
    def more():
        yield from reborn.write(0, b"after-reboot")
        yield from reborn.flush()
        return (yield from reborn.read(0))

    assert drive(sim, more()) == b"after-reboot"


def test_recovery_rebuilds_free_pool_and_device_stays_writable():
    sim, flash, ecc, ftl = make_stack()

    def workload():
        for r in range(6):
            for lpn in range(12):
                yield from ftl.write(lpn, f"r{r}".encode())
        yield from ftl.flush()

    drive(sim, workload())
    reborn, _ = power_cycle(sim, flash, ecc)
    # free pool excludes anything holding data
    for die_pool in reborn.allocator.free:
        for block in die_pool:
            assert int(flash.write_pointer[block]) == 0
    # full churn still works post-recovery
    drive(sim, workload_on(reborn, rounds=4))
    reborn.page_map.check_invariants()


def workload_on(ftl, rounds):
    def flow():
        for r in range(rounds):
            for lpn in range(12):
                yield from ftl.write(lpn, f"post{r}".encode())
        yield from ftl.flush()

    return flow()


def test_recovery_requires_fresh_ftl():
    sim, flash, ecc, ftl = make_stack()
    drive(sim, workload_on(ftl, rounds=1))
    with pytest.raises(RuntimeError, match="fresh"):
        drive(sim, ftl.recover_from_flash())


def test_recovery_costs_scan_time():
    sim, flash, ecc, ftl = make_stack()
    drive(sim, workload_on(ftl, rounds=1))
    before = sim.now
    reborn = FlashTranslationLayer(sim, flash, ecc, config=CONFIG, name="ftl2")
    sim.run(sim.process(reborn.recover_from_flash()))
    assert sim.now > before  # the OOB scan is not free


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 15), st.binary(min_size=1, max_size=8)),
        min_size=1, max_size=40,
    )
)
def test_recovery_matches_oracle_property(writes):
    """Any flushed write history is reconstructed exactly."""
    sim, flash, ecc, ftl = make_stack()
    oracle = {}

    def workload():
        for lpn, payload in writes:
            yield from ftl.write(lpn, payload)
            oracle[lpn] = payload
        yield from ftl.flush()

    drive(sim, workload())
    reborn, mapped = power_cycle(sim, flash, ecc)
    assert mapped == len(oracle)

    def readback():
        out = {}
        for lpn in oracle:
            out[lpn] = yield from reborn.read(lpn)
        return out

    assert drive(sim, readback()) == oracle
    reborn.page_map.check_invariants()
