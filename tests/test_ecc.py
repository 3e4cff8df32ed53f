"""Unit + property tests for the ECC engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ecc import CodewordLayout, EccConfig, EccEngine, UncorrectableError
from repro.sim import Simulator

PAGE = 16384


def make_engine(sim, **kw):
    return EccEngine(sim, EccConfig(**kw) if kw else None)


def decode(sim, engine, page_size, errors):
    return sim.run(sim.process(engine.decode_page(page_size, errors)))


def test_clean_page_decodes_with_base_latency():
    sim = Simulator()
    engine = make_engine(sim)
    outcome = decode(sim, engine, PAGE, 0)
    assert outcome.corrected_bits == 0
    assert outcome.latency == pytest.approx(engine.config.t_decode)
    assert engine.pages_decoded == 1
    assert engine.uncorrectable == 0


def test_correctable_errors_add_latency():
    sim = Simulator()
    engine = make_engine(sim)
    outcome = decode(sim, engine, PAGE, 8)
    assert outcome.corrected_bits == 8
    expected = engine.config.t_decode + 8 * engine.config.t_per_correction
    assert outcome.latency == pytest.approx(expected)
    assert engine.bits_corrected == 8


def test_overwhelming_errors_uncorrectable():
    sim = Simulator()
    engine = make_engine(sim)
    codewords = engine.config.layout.codewords_per_page(PAGE)
    too_many = codewords * engine.config.capability + codewords  # pigeonhole: some cw > t
    with pytest.raises(UncorrectableError):
        decode(sim, engine, PAGE, too_many)
    assert engine.uncorrectable == 1


def test_codeword_layout_division():
    layout = CodewordLayout(data_bytes=2048)
    assert layout.codewords_per_page(16384) == 8
    with pytest.raises(ValueError):
        layout.codewords_per_page(1000)


def test_codeword_bytes_includes_parity():
    layout = CodewordLayout(data_bytes=2048, parity_bytes=112)
    assert layout.codeword_bytes == 2160


@given(errors=st.integers(min_value=0, max_value=300), codewords=st.integers(1, 16))
def test_spread_conserves_error_count(errors, codewords):
    sim = Simulator(seed=3)
    engine = EccEngine(sim)
    spread = engine.spread_errors(errors, codewords)
    assert spread.sum() == errors
    assert (spread >= 0).all()
    assert len(spread) == codewords


def test_energy_sink_called():
    sim = Simulator()
    charged = []
    engine = EccEngine(sim, energy_sink=lambda name, j: charged.append(j))
    decode(sim, engine, PAGE, 0)
    assert charged == [pytest.approx(engine.config.e_per_byte * PAGE)]


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        EccConfig(capability=-1)
    with pytest.raises(ValueError):
        EccConfig(t_decode=-1.0)
    with pytest.raises(ValueError):
        CodewordLayout(data_bytes=0)


def test_encode_page_charges_time_and_energy():
    sim = Simulator()
    charged = []
    engine = EccEngine(sim, energy_sink=lambda n, j: charged.append(j))
    sim.run(sim.process(engine.encode_page(PAGE)))
    assert sim.now == pytest.approx(engine.config.t_decode / 2)  # t_encode default
    assert engine.pages_encoded == 1
    assert charged == [pytest.approx(engine.config.e_encode_per_byte * PAGE)]


def test_encode_page_validates_layout():
    sim = Simulator()
    engine = make_engine(sim)
    with pytest.raises(ValueError):
        sim.run(sim.process(engine.encode_page(1000)))


def test_encode_config_validation():
    with pytest.raises(ValueError):
        EccConfig(t_encode=-1.0)
