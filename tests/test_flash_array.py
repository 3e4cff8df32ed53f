"""Unit tests for the behavioural flash array model."""

import pytest

from repro.flash import (
    BitErrorModel,
    FlashArray,
    FlashGeometry,
    FlashOpError,
    FlashTiming,
    PageAddress,
    PageState,
)
from repro.flash.geometry import BlockAddress
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=2, planes_per_die=1, blocks_per_plane=4, pages_per_block=4,
    page_size=4096,
)


def make_array(sim, **kw):
    kw.setdefault("geometry", GEO)
    kw.setdefault("error_model", BitErrorModel(rber0=1e-9))
    return FlashArray(sim, **kw)


def run(sim, gen):
    return sim.run(sim.process(gen))


def test_program_then_read_returns_data():
    sim = Simulator()
    arr = make_array(sim)
    addr = PageAddress(0, 0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(addr), b"hello world")
        data, errors = yield from arr.read_page(GEO.page_index(addr))
        return data, errors

    data, errors = run(sim, flow())
    assert data == b"hello world"
    assert errors == 0
    assert arr.stats.programs == 1
    assert arr.stats.reads == 1


def test_program_timing_includes_transfer_and_tprog():
    sim = Simulator()
    timing = FlashTiming()
    arr = make_array(sim, timing=timing)
    addr = PageAddress(0, 0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(addr), b"x")

    run(sim, flow())
    expected = timing.transfer_time(GEO.page_size) + timing.t_prog
    assert sim.now == pytest.approx(expected)


def test_read_timing_includes_tread_and_transfer():
    sim = Simulator()
    timing = FlashTiming()
    arr = make_array(sim, timing=timing)
    addr = PageAddress(0, 0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(addr), b"x")
        start = sim.now
        yield from arr.read_page(GEO.page_index(addr))
        return sim.now - start

    elapsed = run(sim, flow())
    assert elapsed == pytest.approx(timing.t_read + timing.transfer_time(GEO.page_size))


def test_read_erased_page_is_protocol_error():
    sim = Simulator()
    arr = make_array(sim)

    def flow():
        yield from arr.read_page(0)

    with pytest.raises(FlashOpError, match=r"erased page PageAddress\(channel=0, die=0"):
        run(sim, flow())


@pytest.mark.parametrize("ppn", [-1, GEO.pages])
def test_read_outside_geometry_rejected(ppn):
    sim = Simulator()
    arr = make_array(sim)

    def flow():
        yield from arr.read_page(ppn)

    with pytest.raises(ValueError, match="out of range"):
        run(sim, flow())


@pytest.mark.parametrize("ppn", [-GEO.pages, -1, GEO.pages])
def test_program_outside_geometry_rejected(ppn):
    """A negative ppn would otherwise index the state arrays from the end:
    ``-GEO.pages`` names page 0 of block 0 there, an in-order program."""
    sim = Simulator()
    arr = make_array(sim)

    def flow():
        yield from arr.program_page(ppn, b"x")

    with pytest.raises(ValueError, match="out of range"):
        run(sim, flow())
    assert arr.stats.programs == 0
    assert not arr.write_pointer.any()


def test_read_page_uses_the_die_and_bus_of_its_flat_index():
    """The flat index of the last page lands on the last die and channel."""
    sim = Simulator()
    arr = make_array(sim)
    last = GEO.page_address(GEO.pages - 1)
    block = BlockAddress(*last[:4])

    def flow():
        for page in range(GEO.pages_per_block):
            yield from arr.program_page(GEO.page_index(PageAddress(*block, page)), b"p")
        start = sim.now
        yield from arr.read_page(GEO.pages - 1)
        return start

    start = run(sim, flow())
    die = arr.die_units[GEO.dies - 1]
    bus = arr.channel_bus[GEO.channels - 1]
    assert die.utilization() > 0 and bus.utilization() > 0
    assert all(d.utilization() == 0 for d in arr.die_units[:-1])
    assert all(b.utilization() == 0 for b in arr.channel_bus[:-1])
    assert sim.now > start


def test_reprogram_without_erase_rejected():
    sim = Simulator()
    arr = make_array(sim)
    addr = PageAddress(0, 0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(addr), b"a")
        yield from arr.program_page(GEO.page_index(addr), b"b")

    with pytest.raises(FlashOpError, match="already-programmed"):
        run(sim, flow())


def test_out_of_order_program_rejected():
    sim = Simulator()
    arr = make_array(sim)

    def flow():
        yield from arr.program_page(GEO.page_index(PageAddress(0, 0, 0, 0, 2)), b"skip")

    with pytest.raises(FlashOpError, match="out-of-order"):
        run(sim, flow())


def test_oversize_payload_rejected():
    sim = Simulator()
    arr = make_array(sim)

    def flow():
        oversize = b"z" * (GEO.page_size + 1)
        yield from arr.program_page(GEO.page_index(PageAddress(0, 0, 0, 0, 0)), oversize)

    with pytest.raises(FlashOpError, match="exceeds page size"):
        run(sim, flow())


def test_erase_resets_block_and_increments_pe():
    sim = Simulator()
    arr = make_array(sim)
    block = BlockAddress(0, 0, 0, 0)
    index = GEO.block_index(block)
    pages = slice(index * GEO.pages_per_block, (index + 1) * GEO.pages_per_block)

    def flow():
        for page in range(GEO.pages_per_block):
            yield from arr.program_page(GEO.page_index(PageAddress(*block, page)), b"d")
        assert not (arr.page_state[pages] == PageState.ERASED).any()
        yield from arr.erase_block(block)

    run(sim, flow())
    assert (arr.page_state[pages] == PageState.ERASED).all()
    assert arr.pe_cycles[index] == 1
    assert arr.write_pointer[index] == 0


def test_erase_allows_reprogram_from_page_zero():
    sim = Simulator()
    arr = make_array(sim)
    block = BlockAddress(0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 0)), b"first")
        yield from arr.erase_block(block)
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 0)), b"second")
        data, _errors = yield from arr.read_page(GEO.page_index(PageAddress(*block, 0)))
        return data

    assert run(sim, flow()) == b"second"


def test_erase_drops_stored_data():
    sim = Simulator()
    arr = make_array(sim)
    block = BlockAddress(0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 0)), b"gone")
        yield from arr.erase_block(block)

    run(sim, flow())
    assert arr._data == {}


def test_channel_bus_serializes_same_channel_dies():
    """Two programs on different dies of one channel contend for the bus;
    on different channels they proceed in parallel."""
    sim = Simulator()
    timing = FlashTiming()
    arr = make_array(sim, timing=timing)

    def program(addr):
        yield from arr.program_page(GEO.page_index(addr), b"x")

    # same channel, two dies
    sim.process(program(PageAddress(0, 0, 0, 0, 0)))
    sim.process(program(PageAddress(0, 1, 0, 0, 0)))
    sim.run()
    same_channel = sim.now

    sim2 = Simulator()
    arr2 = make_array(sim2, timing=timing)
    sim2.process(program_on(arr2, PageAddress(0, 0, 0, 0, 0)))
    sim2.process(program_on(arr2, PageAddress(1, 0, 0, 0, 0)))
    sim2.run()
    cross_channel = sim2.now

    xfer = timing.transfer_time(GEO.page_size)
    assert same_channel == pytest.approx(2 * xfer + timing.t_prog)
    assert cross_channel == pytest.approx(xfer + timing.t_prog)


def program_on(arr, addr):
    yield from arr.program_page(GEO.page_index(addr), b"x")


def test_die_serializes_operations():
    """Two reads on one die serialize the tR phases."""
    sim = Simulator()
    timing = FlashTiming()
    arr = make_array(sim, timing=timing)
    block = BlockAddress(0, 0, 0, 0)

    def setup_and_read():
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 0)), b"a")
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 1)), b"b")
        t0 = sim.now
        p1 = sim.process(read_on(arr, GEO.page_index(PageAddress(*block, 0))))
        p2 = sim.process(read_on(arr, GEO.page_index(PageAddress(*block, 1))))
        yield sim.all_of([p1, p2])
        return sim.now - t0

    elapsed = sim.run(sim.process(setup_and_read()))
    xfer = timing.transfer_time(GEO.page_size)
    # second read's tR starts only after the first releases the die
    assert elapsed == pytest.approx(2 * timing.t_read + xfer)


def read_on(arr, ppn):
    result = yield from arr.read_page(ppn)
    return result


def test_wear_increases_error_rate():
    model = BitErrorModel(rber0=1e-6, pe_rated=100)
    fresh = model.rber(0)
    worn = model.rber(100)
    dead = model.rber(300)
    assert fresh < worn < dead
    assert worn == pytest.approx(2 * fresh)  # alpha=2 at rated cycles doubles


def test_retention_increases_error_rate():
    model = BitErrorModel()
    assert model.rber(0, retention_s=0) < model.rber(0, retention_s=model.tau)


def test_rber_capped_at_half():
    model = BitErrorModel(rber0=1e-2, pe_rated=10, alpha=4.0)
    assert model.rber(10_000, retention_s=model.tau * 100) == 0.5


def test_error_sampling_deterministic_per_seed():
    import numpy as np

    model = BitErrorModel(rber0=1e-3)
    a = model.sample_errors(np.random.default_rng(1), nbits=10_000, pe_cycles=0)
    b = model.sample_errors(np.random.default_rng(1), nbits=10_000, pe_cycles=0)
    assert a == b


def test_energy_accounting_positive_and_sinked():
    sim = Simulator()
    charged = []
    arr = make_array(sim, energy_sink=lambda name, j: charged.append((name, j)))
    block = BlockAddress(0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(PageAddress(*block, 0)), b"x")
        yield from arr.read_page(GEO.page_index(PageAddress(*block, 0)))
        yield from arr.erase_block(block)

    run(sim, flow())
    assert arr.stats.energy_j > 0
    assert sum(j for _, j in charged) == pytest.approx(arr.stats.energy_j)


def test_aggregate_bandwidth_matches_paper_math():
    """16 channels x 533 MB/s ~= 8.5 GB/s per SSD (paper Fig. 1)."""
    sim = Simulator()
    arr = FlashArray(sim)  # default geometry/timing
    assert arr.aggregate_bandwidth == pytest.approx(16 * 533e6)


def test_analytic_mode_stores_no_data():
    sim = Simulator()
    arr = make_array(sim, store_data=False)
    addr = PageAddress(0, 0, 0, 0, 0)

    def flow():
        yield from arr.program_page(GEO.page_index(addr), b"payload")
        data, _errors = yield from arr.read_page(GEO.page_index(addr))
        return data

    assert run(sim, flow()) is None
    assert arr._data == {}
