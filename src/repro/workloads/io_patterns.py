"""Logical-IO access-pattern generators.

The FTL ablations (write amplification, GC interference, wear) need address
streams with controlled locality.  :func:`hot_cold` produces the classic
80/20 (or any f/r) skew deterministically from a NumPy RNG.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hot_cold"]


def hot_cold(
    rng: np.random.Generator,
    logical_pages: int,
    count: int,
    hot_fraction: float = 0.2,
    hot_probability: float = 0.8,
) -> np.ndarray:
    """Skewed traffic: ``hot_probability`` of accesses hit the first
    ``hot_fraction`` of the address space."""
    if not 0 < hot_fraction < 1 or not 0 < hot_probability < 1:
        raise ValueError("hot_fraction and hot_probability must be in (0, 1)")
    hot_pages = max(1, int(logical_pages * hot_fraction))
    is_hot = rng.random(count) < hot_probability
    hot_addrs = rng.integers(0, hot_pages, size=count)
    cold_addrs = rng.integers(hot_pages, max(hot_pages + 1, logical_pages), size=count)
    return np.where(is_hot, hot_addrs, cold_addrs)
