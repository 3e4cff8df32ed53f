"""Property-based tests: the FTL against a dict oracle.

Hypothesis drives random sequences of write/read/trim/flush against the
FTL; a plain dict models the expected logical contents.  After every
sequence the FTL must agree with the oracle and its internal invariants
must hold — regardless of how much GC and scrubbing happened in between.

Tests that take the ``backend`` fixture run here on the page FTL and again
on the zoned FTL from ``tests/test_zoned_ftl.py``, which imports them and
overrides the fixture (module scope, so Hypothesis may share it).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FtlConfig, create_backend
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=6, pages_per_block=4,
    page_size=512,
)
# Matches op_ratio below; the zoned backend's 6 zones of 2 blocks cover
# every page, so both backends export the same logical space.
LOGICAL = int(GEO.pages * (1 - 0.34))


@pytest.fixture(scope="module")
def backend():
    return "page"


def make_ftl(backend="page"):
    sim = Simulator(seed=1)
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=512)))
    if backend == "page":
        config = FtlConfig(op_ratio=0.34, write_buffer_pages=4,
                           gc_low_watermark=1, gc_high_watermark=2)
        ftl = create_backend("page", sim, flash, ecc, config=config)
    else:
        config = FtlConfig(op_ratio=0.34, write_buffer_pages=4)
        ftl = create_backend("zoned", sim, flash, ecc, config=config,
                             zone_blocks=2, max_open_zones=2)
    assert ftl.logical_pages == LOGICAL
    return sim, ftl


def oracle_mismatches(sim, ftl, ops):
    """Run ``(op, arg, payload)`` tuples against ``ftl`` and a dict oracle,
    then read back the whole logical space; returns ``(mismatches,
    oracle)``."""
    oracle: dict[int, bytes] = {}
    mismatches: list[tuple] = []

    def driver():
        for op, arg, payload in ops:
            if op == "write":
                yield from ftl.write(arg, payload)
                oracle[arg] = payload
            elif op == "read":
                data = yield from ftl.read(arg)
                expected = oracle.get(arg)
                if data != expected:
                    mismatches.append((arg, data, expected))
            elif op == "trim":
                yield from ftl.trim([arg])
                oracle.pop(arg, None)
            elif op == "flush":
                yield from ftl.flush()
        yield from ftl.flush()
        # final readback of the whole logical space
        for lpn in range(ftl.logical_pages):
            data = yield from ftl.read(lpn)
            expected = oracle.get(lpn)
            if data != expected:
                mismatches.append((lpn, data, expected))

    sim.run(sim.process(driver()))
    return mismatches, oracle


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, LOGICAL - 1), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("read"), st.integers(0, LOGICAL - 1), st.just(b"")),
        st.tuples(st.just("trim"), st.integers(0, LOGICAL - 1), st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_ftl_agrees_with_dict_oracle(backend, ops):
    sim, ftl = make_ftl(backend)
    mismatches, oracle = oracle_mismatches(sim, ftl, ops)
    assert mismatches == []
    ftl.page_map.check_invariants()
    assert ftl.page_map.mapped_logical_pages() == len(oracle)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lpns=st.lists(st.integers(0, LOGICAL - 1), min_size=4, max_size=24),
    rounds=st.integers(1, 4),
)
def test_ftl_overwrite_churn_preserves_last_write(lpns, rounds):
    """Repeated overwrites of arbitrary pages always read back the latest
    value, and write amplification stays finite and sane."""
    sim, ftl = make_ftl()
    latest: dict[int, bytes] = {}

    def driver():
        for r in range(rounds):
            for i, lpn in enumerate(lpns):
                payload = f"r{r}i{i}".encode()
                yield from ftl.write(lpn, payload)
                latest[lpn] = payload
        yield from ftl.flush()
        out = {}
        for lpn in set(lpns):
            out[lpn] = yield from ftl.read(lpn)
        return out

    out = sim.run(sim.process(driver()))
    assert out == latest
    ftl.page_map.check_invariants()
    wa = ftl.write_amplification()
    assert wa == 0.0 or 1.0 <= wa < 4.0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_concurrent_writers_agree_with_oracle(backend, data):
    """Parallel writers to disjoint pages: all values land."""
    sim, ftl = make_ftl(backend)
    lpns = data.draw(
        st.lists(st.integers(0, LOGICAL - 1), min_size=2, max_size=10, unique=True)
    )

    def writer(lpn, payload):
        yield from ftl.write(lpn, payload)

    def driver():
        procs = [
            sim.process(writer(lpn, f"v{lpn}".encode())) for lpn in lpns
        ]
        yield sim.all_of(procs)
        yield from ftl.flush()
        out = {}
        for lpn in lpns:
            out[lpn] = yield from ftl.read(lpn)
        return out

    out = sim.run(sim.process(driver()))
    assert out == {lpn: f"v{lpn}".encode() for lpn in lpns}
    ftl.page_map.check_invariants()
