"""A small extent filesystem over a block device.

Flat namespace, page-granular allocation, in-memory metadata with explicit
persistence to a reserved metadata region.  It supports the two access
patterns the paper's workloads need: whole-file reads/writes and streamed
page-sized chunks (so multi-gigabyte scans don't materialise in memory).

Functional vs analytic mode follows the device: when the underlying device
stores no payloads, reads return ``None`` chunks but all sizes, offsets and
timings stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generator

from repro.isos.blockdev import BlockDevice
from repro.sim import Simulator

__all__ = ["ExtentFileSystem", "FsError", "Inode"]

#: Pages reserved at the front of the device for the superblock + file table.
DEFAULT_META_PAGES = 4


class FsError(Exception):
    """Filesystem-level failure (missing file, no space, bad name, ...)."""


@dataclass(slots=True)
class Inode:
    """Metadata for one file."""

    name: str
    size: int = 0
    pages: list[int] = field(default_factory=list)
    mtime: float = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "size": self.size, "pages": self.pages, "mtime": self.mtime}

    @classmethod
    def from_json(cls, obj: dict) -> "Inode":
        return cls(name=obj["name"], size=obj["size"], pages=list(obj["pages"]), mtime=obj["mtime"])


class ExtentFileSystem:
    """Flat-namespace filesystem.

    All mutating and reading entry points are simulation processes (they
    perform device I/O); purely structural queries (``exists``, ``stat``,
    ``listdir``) are synchronous.
    """

    def __init__(self, sim: Simulator, device: BlockDevice, meta_pages: int = DEFAULT_META_PAGES):
        if meta_pages < 1 or meta_pages >= device.pages:
            raise ValueError("meta_pages must be in [1, device.pages)")
        self.sim = sim
        self.device = device
        self.meta_pages = meta_pages
        self.files: dict[str, Inode] = {}
        self._free: list[int] = list(range(device.pages - 1, meta_pages - 1, -1))
        # a device's page size never changes; every page copy reads this
        self.page_size = device.page_size

    # -- capacity -----------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def free_bytes(self) -> int:
        return self.free_pages * self.page_size

    def _pages_needed(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.page_size)) if nbytes else 0

    # -- structural queries ----------------------------------------------------
    def exists(self, name: str) -> bool:
        return name in self.files

    def stat(self, name: str) -> Inode:
        inode = self.files.get(name)
        if inode is None:
            raise FsError(f"no such file: {name!r}")
        return inode

    def listdir(self) -> list[str]:
        return sorted(self.files)

    # -- mutation ------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name or "\x00" in name:
            raise FsError(f"invalid file name {name!r}")

    def write_file(self, name: str, data: bytes | None, size: int | None = None) -> Generator:
        """Create or replace ``name``.

        ``data=None`` with an explicit ``size`` is analytic mode: space is
        allocated and device writes happen, but no payload is stored.
        """
        self._check_name(name)
        if data is not None:
            size = len(data)
        if size is None:
            raise FsError("write_file needs data or an explicit size")
        if size < 0:
            raise FsError("size must be non-negative")
        needed = self._pages_needed(size)
        old = self.files.get(name)
        reusable = len(old.pages) if old else 0
        if needed - reusable > self.free_pages:
            raise FsError(
                f"no space for {name!r}: need {needed} pages, "
                f"{self.free_pages + reusable} available"
            )
        if old is not None:
            yield from self._release(old)
        inode = Inode(name=name, size=size, mtime=self.sim.now)
        for i in range(needed):
            lpn = self._free.pop()
            chunk = None
            if data is not None:
                chunk = data[i * self.page_size : (i + 1) * self.page_size]
            yield from self.device.write(lpn, chunk)
            inode.pages.append(lpn)
        self.files[name] = inode
        return inode

    def append(self, name: str, data: bytes | None, size: int | None = None) -> Generator:
        """Append to an existing (or new) file."""
        if data is not None:
            size = len(data)
        if size is None:
            raise FsError("append needs data or an explicit size")
        if name not in self.files:
            result = yield from self.write_file(name, data, size)
            return result
        inode = self.files[name]
        # Appends are page-aligned (the tail page is not repacked): the
        # existing content is padded with zeros to the next page boundary,
        # so byte i of a file always lives at page i // page_size.  A
        # general-purpose FS would read-modify-write the tail page instead.
        needed = self._pages_needed(size)
        if needed > self.free_pages:
            raise FsError(f"no space to append {needed} pages to {name!r}")
        aligned = len(inode.pages) * self.page_size
        for i in range(needed):
            lpn = self._free.pop()
            chunk = None
            if data is not None:
                chunk = data[i * self.page_size : (i + 1) * self.page_size]
            yield from self.device.write(lpn, chunk)
            inode.pages.append(lpn)
        inode.size = aligned + size
        inode.mtime = self.sim.now
        return inode

    def delete(self, name: str) -> Generator:
        inode = self.files.pop(name, None)
        if inode is None:
            raise FsError(f"no such file: {name!r}")
        yield from self._release(inode)
        return None

    def _release(self, inode: Inode) -> Generator:
        if inode.pages:
            yield from self.device.trim(list(inode.pages))
            self._free.extend(reversed(inode.pages))
        inode.pages = []
        return None

    # -- reads ----------------------------------------------------------------
    def _pad(self, chunk: bytes) -> bytes:
        """Short device chunks read back zero-padded to a full page, so the
        byte-to-page mapping stays positional."""
        if len(chunk) < self.page_size:
            return chunk.ljust(self.page_size, b"\0")
        return chunk

    def read_file(self, name: str) -> Generator:
        """Whole-file read; returns bytes (or ``None`` in analytic mode)."""
        inode = self.stat(name)
        chunks: list[bytes] = []
        analytic = False
        for lpn in inode.pages:
            chunk = yield from self.device.read(lpn)
            if chunk is None:
                analytic = True
            else:
                chunks.append(self._pad(chunk))
        if analytic:
            return None
        return b"".join(chunks)[: inode.size]

    def stream_file(self, name: str) -> Generator:
        """Yield ``(chunk_bytes_or_None, chunk_len)`` page by page.

        This is itself a simulation process; callers iterate by repeatedly
        delegating with ``yield from`` on :meth:`read_page_of`.  For
        convenience the whole stream is returned as a list when delegated
        to directly — large-scan apps should use :meth:`read_page_of`.
        """
        inode = self.stat(name)
        out = []
        remaining = inode.size
        for lpn in inode.pages:
            chunk = yield from self.device.read(lpn)
            take = min(self.page_size, remaining)
            if chunk is not None and len(chunk) != take:
                chunk = self._pad(chunk)[:take]
            out.append((chunk, take))
            remaining -= take
        return out

    def read_page_of(self, name: str, index: int) -> Generator:
        """Read the ``index``-th page of a file; returns (data, valid_len)."""
        inode = self.stat(name)
        if not 0 <= index < len(inode.pages):
            raise FsError(f"page {index} out of range for {name!r}")
        chunk = yield from self.device.read(inode.pages[index])
        start = index * self.page_size
        take = min(self.page_size, inode.size - start)
        # A stored chunk of exactly ``take`` bytes goes up as is: no copies,
        # and every read of the page returns the object flash holds (whose
        # hash CPython caches for the grep/gawk scan memo).
        if chunk is not None and len(chunk) != take:
            chunk = self._pad(chunk)[:take]
        return chunk, take

    def peek_pages(self, name: str) -> list[bytes] | None:
        """The chunks :meth:`read_page_of` would return for every page of
        ``name`` now, looked up without simulated time.

        ``None`` when the device cannot look pages up (the NVMe path) or a
        page holds no payload (analytic mode).  A later write may change
        what the reads return, so callers check each chunk they read.
        """
        peek = getattr(self.device, "peek", None)
        if peek is None:
            return None
        inode = self.stat(name)
        page_size = self.page_size
        pages = []
        for index, lpn in enumerate(inode.pages):
            chunk = peek(lpn)
            if chunk is None:
                return None
            take = min(page_size, inode.size - index * page_size)
            if len(chunk) != take:
                chunk = self._pad(chunk)[:take]
            pages.append(chunk)
        return pages

    def page_count(self, name: str) -> int:
        return len(self.stat(name).pages)

    # -- persistence ---------------------------------------------------------
    def persist(self) -> Generator:
        """Serialise the file table into the metadata region."""
        blob = json.dumps(
            {"files": [inode.to_json() for inode in self.files.values()]}
        ).encode()
        capacity = self.meta_pages * self.page_size
        if len(blob) > capacity:
            raise FsError(
                f"metadata ({len(blob)}B) exceeds reserved region ({capacity}B); "
                "raise meta_pages"
            )
        for i in range(self.meta_pages):
            chunk = blob[i * self.page_size : (i + 1) * self.page_size]
            yield from self.device.write(i, chunk or b"\0")
        yield from self.device.flush()
        return None

    def load(self) -> Generator:
        """Rebuild the file table from the metadata region (after 'reboot')."""
        chunks = []
        for i in range(self.meta_pages):
            chunk = yield from self.device.read(i)
            # an unwritten metadata page reads back empty (fresh device, or
            # metadata never persisted before the power cut); analytic-mode
            # devices land here too and simply load an empty namespace
            chunks.append(chunk if chunk is not None else b"")
        blob = b"".join(chunks).rstrip(b"\0")
        table = json.loads(blob.decode()) if blob else {"files": []}
        self.files = {obj["name"]: Inode.from_json(obj) for obj in table["files"]}
        used = {lpn for inode in self.files.values() for lpn in inode.pages}
        self._free = [
            lpn
            for lpn in range(self.device.pages - 1, self.meta_pages - 1, -1)
            if lpn not in used
        ]
        return None
