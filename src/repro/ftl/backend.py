"""Translation backends: the interface and the name lookup.

Everything above the FTL — the NVMe controller, the ISPS flash access
driver, the staging and objstore paths — uses a narrow surface of it,
captured here as the :class:`TranslationBackend` protocol:

- logical page I/O: ``read`` / ``write`` / ``trim`` / ``flush`` (simulation
  generators), and ``peek``, the payload a read would return, looked up
  without simulated time;
- capacity: ``logical_pages`` / ``page_size`` / ``logical_capacity_bytes``;
- accounting: ``host_reads`` / ``host_writes`` / ``uncorrectable_reads``,
  ``write_amplification()`` and ``stats()``, the backend's one snapshot:
  host, GC and space counts (free and bad space in erase blocks on both
  backends) that SMART, the backend cells and the benchmark all read, plus
  the few keys only one backend has (``scrub_refreshes`` on the page FTL,
  ``zones_*`` and ``zone_resets`` on the zoned one);
- fault hooks: the raw ``flash`` array stays reachable, so media-level
  fault injection (``mark_block_failed``, error-model tweaks) works against
  any backend.

Both backends share one implementation of that surface,
:class:`~repro.ftl.ftl.TranslationCore`, and differ only in placement and
reclaim.  :func:`create_backend` is the single construction funnel the
device assembly uses: it looks ``page``
(:class:`~repro.ftl.ftl.FlashTranslationLayer`, the default) or ``zoned``
(:class:`~repro.ftl.zoned.ZonedFtl`) up by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Protocol, runtime_checkable

from repro.ftl.ftl import FlashTranslationLayer
from repro.ftl.zoned import ZonedFtl

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.ecc import EccEngine
    from repro.flash.package import FlashArray
    from repro.ftl.ftl import FtlConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.sim import Simulator, Tracer

__all__ = ["DEVICE_BACKENDS", "TranslationBackend", "create_backend"]

_BACKENDS = {"page": FlashTranslationLayer, "zoned": ZonedFtl}

#: Backend names a scenario's ``device.backend`` knob may select.
DEVICE_BACKENDS: tuple[str, ...] = tuple(_BACKENDS)


@runtime_checkable
class TranslationBackend(Protocol):
    """The contract every translation backend satisfies.

    A backend is a logical page device over a :class:`~repro.flash.package.
    FlashArray` plus :class:`~repro.ecc.EccEngine`; all I/O methods are
    simulation generators.  ``flash`` stays exposed deliberately: media
    models, wear counters, and fault hooks live there and are
    backend-independent.
    """

    name: str
    logical_pages: int
    host_reads: int
    host_writes: int
    uncorrectable_reads: int

    @property
    def page_size(self) -> int: ...

    @property
    def logical_capacity_bytes(self) -> int: ...

    def read(self, lpn: int) -> Generator: ...

    def peek(self, lpn: int) -> bytes | None: ...

    def write(self, lpn: int, data: bytes | None) -> Generator: ...

    def trim(self, lpns: "list[int] | range") -> Generator: ...

    def flush(self) -> Generator: ...

    def write_amplification(self) -> float: ...

    def stats(self) -> dict[str, float]: ...


def create_backend(
    backend: str,
    sim: "Simulator",
    flash: "FlashArray",
    ecc: "EccEngine",
    *,
    config: "FtlConfig | None" = None,
    name: str = "ftl",
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    **knobs: Any,
) -> "TranslationBackend":
    """Build the named backend over an existing flash array + ECC engine.

    ``knobs`` are backend-specific (the zoned backend takes ``zone_blocks``
    and ``max_open_zones``); the page backend takes none, so passing knobs
    with ``backend="page"`` is a ``TypeError`` rather than a silent ignore.
    """
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown device backend {backend!r}; use {sorted(_BACKENDS)}"
        ) from None
    return cls(
        sim, flash, ecc, config=config, name=name, tracer=tracer,
        metrics=metrics, **knobs,
    )
