"""BCH-style ECC engine model.

Real enterprise controllers (like the paper's Virtex-7 SSD controller) run a
hardware BCH/LDPC pipeline.  We model the externally visible behaviour:

- a **codeword layout** (data bytes + parity bytes per codeword, codewords
  per page);
- a **correction capability** ``t`` — up to ``t`` bit errors per codeword are
  corrected, more are uncorrectable;
- a **latency model**: fixed pipeline latency plus a per-corrected-bit term
  (iterative decoders slow down as error counts climb);
- an **energy model** per decoded byte.

The engine distributes a page's raw error count over its codewords with a
multinomial draw, so a page whose total errors would be correctable "on
average" can still fail when errors cluster in one codeword — the behaviour
that makes end-of-life flash reads risky.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.sim import Simulator

__all__ = ["CodewordLayout", "EccConfig", "EccEngine", "UncorrectableError", "DecodeOutcome"]


class UncorrectableError(Exception):
    """A codeword exceeded the correction capability of the code."""

    def __init__(self, codeword: int, errors: int, capability: int):
        super().__init__(
            f"codeword {codeword} has {errors} bit errors, capability is {capability}"
        )
        self.codeword = codeword
        self.errors = errors
        self.capability = capability


@dataclass(frozen=True, slots=True)
class CodewordLayout:
    """How a page is cut into codewords."""

    data_bytes: int = 2048
    parity_bytes: int = 112  # ~BCH t=40 over GF(2^14) on 2KiB

    def __post_init__(self) -> None:
        if self.data_bytes < 1 or self.parity_bytes < 0:
            raise ValueError("invalid codeword layout")

    @property
    def codeword_bytes(self) -> int:
        return self.data_bytes + self.parity_bytes

    def codewords_per_page(self, page_size: int) -> int:
        n, rem = divmod(page_size, self.data_bytes)
        if n < 1 or rem:
            raise ValueError(
                f"page size {page_size} is not a multiple of codeword data size "
                f"{self.data_bytes}"
            )
        return n


@dataclass(frozen=True, slots=True)
class EccConfig:
    """Engine parameters."""

    layout: CodewordLayout = CodewordLayout()
    capability: int = 40  # correctable bit errors per codeword
    t_decode: float = 2e-6  # fixed pipeline latency per page
    t_per_correction: float = 50e-9  # extra latency per corrected bit
    e_per_byte: float = 1e-12  # decode energy per byte
    t_encode: float = 1e-6  # parity generation per page (pipelined LFSR)
    e_encode_per_byte: float = 0.5e-12  # encode energy per byte

    def __post_init__(self) -> None:
        if self.capability < 0:
            raise ValueError("capability must be non-negative")
        if self.t_decode < 0 or self.t_per_correction < 0 or self.e_per_byte < 0:
            raise ValueError("latency/energy terms must be non-negative")
        if self.t_encode < 0 or self.e_encode_per_byte < 0:
            raise ValueError("encode terms must be non-negative")


@dataclass(frozen=True, slots=True)
class DecodeOutcome:
    """Result of decoding one page."""

    corrected_bits: int
    codewords: int
    latency: float
    energy_j: float


class EccEngine:
    """Decode-side ECC model attached to a controller.

    ``decode_page`` is a simulation process; it consumes time, charges
    energy through ``energy_sink`` if given, and raises
    :class:`UncorrectableError` when any codeword is beyond ``t``.
    """

    def __init__(
        self,
        sim: Simulator,
        config: EccConfig | None = None,
        name: str = "ecc",
        energy_sink=None,
    ):
        self.sim = sim
        self.config = config or EccConfig()
        self.name = name
        self.energy_sink = energy_sink
        self._rng = sim.rng(f"{name}.spread")
        self.pages_decoded = 0
        self.pages_encoded = 0
        self.bits_corrected = 0
        self.uncorrectable = 0
        # page_size -> codeword count; the layout is frozen so the divmod
        # (and its validation) only needs to run once per distinct size.
        self._codewords_memo: dict[int, int] = {}
        # page_size -> (energy, outcome) of an error-free decode: both are
        # fixed per page size, and the outcome is frozen, so every clean
        # read of one size shares them.
        self._clean_memo: dict[int, tuple[float, DecodeOutcome]] = {}

    def _codewords(self, page_size: int) -> int:
        n = self._codewords_memo.get(page_size)
        if n is None:
            n = self._codewords_memo[page_size] = self.config.layout.codewords_per_page(
                page_size
            )
        return n

    def encode_page(self, page_size: int) -> Generator:
        """Generate parity for one page before programming (write path).

        Hardware LFSR pipelines make this cheap and error-free; the model
        charges the fixed pipeline latency and encode energy.
        """
        self._codewords(page_size)  # validates layout fit
        yield self.sim.timeout(self.config.t_encode)
        if self.energy_sink is not None:
            self.energy_sink(self.name, self.config.e_encode_per_byte * page_size)
        self.pages_encoded += 1
        return None

    def spread_errors(self, total_errors: int, codewords: int) -> np.ndarray:
        """Distribute a page's raw errors uniformly over its codewords."""
        if total_errors < 0 or codewords < 1:
            raise ValueError("bad error/codeword counts")
        if total_errors == 0:
            return np.zeros(codewords, dtype=np.int64)
        return self._rng.multinomial(total_errors, np.full(codewords, 1.0 / codewords))

    def decode_page(self, page_size: int, raw_bit_errors: int) -> Generator:
        """Decode one page's codewords; returns :class:`DecodeOutcome`."""
        cfg = self.config
        if raw_bit_errors == 0:
            # Fast path for the dominant error-free read: spread_errors
            # would return all zeros without touching the RNG, so latency,
            # energy and state updates below are byte-identical to the
            # general path with every per-codeword count at zero.
            clean = self._clean_memo.get(page_size)
            if clean is None:
                energy = cfg.e_per_byte * page_size
                clean = self._clean_memo[page_size] = (
                    energy,
                    DecodeOutcome(
                        corrected_bits=0,
                        codewords=self._codewords(page_size),
                        latency=cfg.t_decode,
                        energy_j=energy,
                    ),
                )
            yield self.sim.timeout(cfg.t_decode)
            if self.energy_sink is not None:
                self.energy_sink(self.name, clean[0])
            self.pages_decoded += 1
            return clean[1]
        codewords = self._codewords(page_size)
        per_cw = self.spread_errors(raw_bit_errors, codewords)
        worst = int(per_cw.max()) if codewords else 0
        total = int(per_cw.sum())
        latency = cfg.t_decode + cfg.t_per_correction * total
        yield self.sim.timeout(latency)

        energy = cfg.e_per_byte * page_size
        if self.energy_sink is not None:
            self.energy_sink(self.name, energy)
        self.pages_decoded += 1

        if worst > cfg.capability:
            self.uncorrectable += 1
            bad = int(np.argmax(per_cw))
            raise UncorrectableError(bad, worst, cfg.capability)

        self.bits_corrected += total
        return DecodeOutcome(
            corrected_bits=total,
            codewords=codewords,
            latency=latency,
            energy_j=energy,
        )
