"""Flash translation layer.

The FTL turns the raw NAND array into a logical block device:

- :mod:`repro.ftl.mapping` — page-level logical-to-physical map with valid
  page accounting;
- :mod:`repro.ftl.allocator` — free-block pool and per-die write frontiers
  (dynamic wear-aware allocation);
- :mod:`repro.ftl.gc` — the page FTL's victim policies (greedy /
  cost-benefit) and the background collector both backends run;
- :mod:`repro.ftl.write_buffer` — the "fast-release host data buffer" from
  the paper: host writes complete on buffer insertion and are flushed to
  flash asynchronously;
- :mod:`repro.ftl.ftl` — :class:`TranslationCore`, the one implementation of
  ``read`` / ``write`` / ``trim`` / ``flush``, destage and GC relocation,
  and :class:`FlashTranslationLayer`, the page-mapped backend on top of it;
- :mod:`repro.ftl.zoned` — :class:`ZonedFtl`, the ZNS-style backend on the
  same core (zone appends, zone resets, whole-zone GC victims);
- :mod:`repro.ftl.backend` — the :class:`TranslationBackend` protocol and
  :func:`create_backend`, which looks a backend up by name.

In CompStor both the host path (via NVMe) and the ISPS path (via the flash
access device driver) issue logical I/O against this layer; the ISPS path
skips the PCIe hop, which is where the in-situ bandwidth advantage
originates.
"""

from repro.ftl.allocator import BlockAllocator, OutOfSpaceError
from repro.ftl.backend import DEVICE_BACKENDS, TranslationBackend, create_backend
from repro.ftl.ftl import FlashTranslationLayer, FtlConfig, LogicalIOError, TranslationCore
from repro.ftl.gc import CostBenefitPolicy, GarbageCollector, GcPolicy, GreedyPolicy
from repro.ftl.mapping import PageMap
from repro.ftl.scrubber import PatrolScrubber
from repro.ftl.write_buffer import WriteBuffer
from repro.ftl.zoned import ZonedFtl, ZoneState

__all__ = [
    "BlockAllocator",
    "CostBenefitPolicy",
    "DEVICE_BACKENDS",
    "FlashTranslationLayer",
    "FtlConfig",
    "GarbageCollector",
    "GcPolicy",
    "GreedyPolicy",
    "LogicalIOError",
    "OutOfSpaceError",
    "PageMap",
    "PatrolScrubber",
    "TranslationBackend",
    "TranslationCore",
    "WriteBuffer",
    "ZoneState",
    "ZonedFtl",
    "create_backend",
]
