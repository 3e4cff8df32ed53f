"""Flash operation timing.

Latencies follow public enterprise TLC NAND datasheet ranges.  The channel
transfer rate defaults to **533 MB/s**, the figure the paper uses for its
Fig. 1 bandwidth-mismatch analysis (16 ch x 533 MB/s ≈ 8.5 GB/s per SSD).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlashTiming"]

MB = 1_000_000


@dataclass(frozen=True, slots=True)
class FlashTiming:
    """Per-operation latencies (seconds) and channel bus rate (bytes/s).

    Attributes
    ----------
    t_read:
        Array read time tR — cell array to page register.
    t_prog:
        Page program time tPROG.
    t_erase:
        Block erase time tBERS.
    channel_rate:
        ONFI/Toggle bus rate per channel, bytes/second.
    t_cmd:
        Command/address cycle overhead per operation on the bus.
    """

    t_read: float = 60e-6
    t_prog: float = 700e-6
    t_erase: float = 3.5e-3
    channel_rate: float = 533 * MB
    t_cmd: float = 1e-6

    def __post_init__(self) -> None:
        for field in ("t_read", "t_prog", "t_erase", "channel_rate", "t_cmd"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    def transfer_time(self, nbytes: int) -> float:
        """Bus occupancy to move ``nbytes`` over one channel."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.t_cmd + nbytes / self.channel_rate
