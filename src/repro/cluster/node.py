"""A storage node: one host, a PCIe fabric, N CompStors (paper Fig. 2).

:func:`repro.config.build_node` assembles it from a
:class:`~repro.config.ScenarioConfig`: host server (Xeon), root complex +
switch, N in-situ drives, one shared power meter, and the in-situ client
library attached to every device.  ``fleet.with_baseline_ssd`` adds a
conventional drive for the host-side baseline (the Table IV setup uses a
separate, identical server; sharing the fabric here changes nothing
because the baseline and in-situ runs never overlap in time).
"""

from __future__ import annotations

from typing import Generator, Iterable, Sequence

from repro.host import HostServer, InSituClient
from repro.pcie import PcieFabric
from repro.power import PowerMeter
from repro.sim import Simulator
from repro.ssd import CompStorSSD, ConventionalSSD
from repro.workloads import BookFile, partition_round_robin

__all__ = ["StorageNode"]


class StorageNode:
    """Host + fabric + N CompStors (+ optional baseline drive)."""

    def __init__(
        self,
        sim: Simulator,
        host: HostServer,
        fabric: PcieFabric,
        compstors: list[CompStorSSD],
        client: InSituClient,
        meter: PowerMeter,
        baseline_ssd: ConventionalSSD | None = None,
    ):
        self.sim = sim
        self.host = host
        self.fabric = fabric
        self.compstors = compstors
        self.client = client
        self.meter = meter
        self.baseline_ssd = baseline_ssd

    # -- dataset staging ----------------------------------------------------------
    def stage_corpus(
        self,
        books: Sequence[BookFile],
        compressed: bool = True,
        include_host: bool = False,
    ) -> Generator:
        """Distribute books round-robin across the CompStors' filesystems.

        ``include_host`` additionally stages *all* books on the host's
        baseline drive (for host-vs-device comparisons).
        """
        parts = partition_round_robin(list(books), len(self.compstors))
        procs = []
        for ssd, part in zip(self.compstors, parts):
            stage = self._stage_books(ssd.fs, part, compressed)
            procs.append(self.sim.process(stage, name=f"stage->{ssd.name}"))
        if include_host:
            fs = self.host.require_os().fs
            procs.append(
                self.sim.process(self._stage_books(fs, books, compressed), name="stage->host")
            )
        yield self.sim.all_of(procs)
        return None

    @staticmethod
    def _stage_books(fs, books: Iterable[BookFile], compressed: bool) -> Generator:
        for book in books:
            if compressed:
                yield from fs.write_file(
                    book.compressed_name, book.compressed, size=book.compressed_size
                )
            else:
                yield from fs.write_file(book.name, book.plain, size=book.plain_size)
        # land everything on NAND so measurements that follow staging see a
        # quiescent device (the paper pre-loads its dataset)
        yield from fs.device.flush()
        return None

    def device_books(self, books: Sequence[BookFile]) -> dict[str, list[BookFile]]:
        """Which device holds which book under round-robin staging."""
        parts = partition_round_robin(list(books), len(self.compstors))
        return {ssd.name: part for ssd, part in zip(self.compstors, parts)}

    # -- reporting ----------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "host": self.host.describe(),
            "devices": [ssd.describe() for ssd in self.compstors],
            "fabric_endpoints": len(self.fabric),
            "baseline_ssd": self.baseline_ssd.describe() if self.baseline_ssd else None,
        }
