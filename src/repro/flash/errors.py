"""Raw bit-error-rate (RBER) model.

RBER grows with program/erase (P/E) cycling and with retention time.  We use
the standard empirical power-law-plus-exponential form

    RBER(pe, t) = rber0 * (1 + (pe / pe_rated)^alpha) * exp(t / tau)

which matches published TLC characterisation shapes closely enough for an
FTL/ECC co-design study: fresh blocks sit near ``rber0``, end-of-life blocks
(pe = pe_rated) roughly double it raised by ``alpha``, and long retention
inflates errors exponentially.

The model *samples* the number of bit errors in a codeword as a binomial
draw, so ECC behaviour (correctable vs uncorrectable) is stochastic but
deterministic under the simulator's seeded RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BitErrorModel"]


@dataclass(frozen=True, slots=True)
class BitErrorModel:
    """RBER as a function of wear and retention.

    Attributes
    ----------
    rber0:
        Fresh-block, zero-retention raw bit error rate.
    pe_rated:
        Rated P/E cycles (endurance) of the media.
    alpha:
        Wear exponent; 2.0 reproduces the accelerating TLC wear-out curve.
    tau:
        Retention time constant in seconds (errors grow ~e-fold per tau).
    """

    rber0: float = 1e-6
    pe_rated: int = 3000
    alpha: float = 2.0
    tau: float = 90 * 86400.0  # 90 days

    def __post_init__(self) -> None:
        if self.rber0 <= 0 or self.rber0 >= 1:
            raise ValueError("rber0 must be in (0, 1)")
        if self.pe_rated < 1:
            raise ValueError("pe_rated must be >= 1")
        if self.alpha < 0 or self.tau <= 0:
            raise ValueError("alpha must be >= 0 and tau > 0")

    def rber(self, pe_cycles: int, retention_s: float = 0.0) -> float:
        """Raw bit error rate for a page with the given wear and retention."""
        if pe_cycles < 0 or retention_s < 0:
            raise ValueError("pe_cycles and retention_s must be non-negative")
        wear = 1.0 + (pe_cycles / self.pe_rated) ** self.alpha
        # min(x, cap) spelled as a conditional that picks the same operand,
        # NaN included; the exponent stays numpy's, so the rate is
        # bit-identical to the builtin form.
        age = retention_s / self.tau
        rate = self.rber0 * wear * float(np.exp(50.0 if age > 50.0 else age))
        return 0.5 if rate > 0.5 else rate

    def sample_errors(
        self,
        rng: np.random.Generator,
        nbits: int,
        pe_cycles: int,
        retention_s: float = 0.0,
    ) -> int:
        """Draw the number of raw bit errors in an ``nbits`` codeword."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        rate = self.rber(pe_cycles, retention_s)
        return int(rng.binomial(nbits, rate))

    def expected_errors(self, nbits: int, pe_cycles: int, retention_s: float = 0.0) -> float:
        """Mean error count — used by analytic (non-sampled) fast paths."""
        return nbits * self.rber(pe_cycles, retention_s)
