"""Compression / decompression applications (gzip, bzip2 families).

Functional mode really compresses with :mod:`zlib` / :mod:`bz2`, so
compression ratios in the experiments are genuine properties of the
synthetic corpus.  Analytic mode allocates output using the calibrated ratio
without moving bytes.

Cycle costs are charged per *input* byte, matching how the paper normalises
Fig. 8 per gigabyte of data.

Because every experiment is deterministic, the same corpus is compressed
again on every rerun of a sweep (parameter studies, best-of-N benchmarks,
repeated tests).  The codec output for a given input is a pure function, so
it is memoized process-wide, keyed by content digest, and only a cache miss
pays the real codec cost.  One-shot and page-streamed compression produce
byte-identical output for both zlib and bz2 (their compressor objects
buffer internally; output depends only on the total input), so the cache is
invisible to schedules, traces and golden digests.

**The codec lane.**  Simulated drives compress in parallel, so a miss is
compressed on a two-thread host pool (the lane) while the simulator runs
on; CPython releases the GIL inside deflate and ``BZ2_bzCompress``, so on a
multi-core host the codec takes a core the simulator leaves idle.  ``begin``
looks the input's stored pages up without simulated time
(:meth:`~repro.isos.filesystem.ExtentFileSystem.peek_pages`), digests them,
and submits one whole-file task holding the page objects, which the worker
joins (no copy is made on the simulator's thread); ``finish`` takes the blob
from the app's own future, so a memo eviction cannot lose it.  Each task
costs one GIL hand-back: a worker that finishes waits for the simulator to
drop the GIL, up to the 5 ms switch interval.  So there is one task per
file, started as early as possible, and two threads, so that one
compresses while the other waits.  On one core the lane gains nothing.

No schedule can move: workers run a pure codec over their arguments and
touch no simulator state, and only the simulator's thread reads or writes
the memo.  Every page is still streamed and charged as before, and
``consume`` checks it against the page peeked at ``begin`` (``is``, then
``==``).  If the file changed in between, the app falls back to buffering
what was streamed and waits at ``finish`` for its blob; :data:`LANE_COUNTS`
counts tasks and fallbacks.  Inputs the filesystem cannot peek (the NVMe
path) take that buffered path from the start, analytic inputs move no
bytes, and inputs over ``_MEMO_LIMIT`` stream straight through a compressor
object.
"""

from __future__ import annotations

import bz2
import hashlib
import os
import zlib
from collections import Counter
from typing import TYPE_CHECKING, Generator

from repro.analysis.calibration import ANALYTIC_COMPRESSION_RATIO
from repro.apps.base import PayloadMemo, StreamingApp, clears_with_payloads
from repro.isos.loader import ExecContext, ExitStatus

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["LANE_COUNTS", "Bunzip2App", "Bzip2App", "GunzipApp", "GzipApp"]

#: (codec family, content digest) -> future of the compressed blob, shared
#: by all app instances; sized for sweep corpora (hundreds of files), not
#: archives.
_BLOB_CACHE = PayloadMemo()

#: Inputs larger than this stream straight through the codec (no buffering,
#: no memoization) so memory stays bounded for pathological file sizes.
_MEMO_LIMIT = 8 * 1024 * 1024

#: ``tasks``: codec runs submitted to the lane (one per memo miss);
#: ``fallbacks``: streams that left their peeked pages.
LANE_COUNTS: Counter = clears_with_payloads(Counter())

_LANE: ThreadPoolExecutor | None = None


def _lane() -> ThreadPoolExecutor:
    """The lane, built (and its module imported) on the first miss: runs
    with no codec app pay nothing for it."""
    global _LANE
    if _LANE is None:
        from concurrent.futures import ThreadPoolExecutor

        _LANE = ThreadPoolExecutor(max_workers=2, thread_name_prefix="codec-lane")
    return _LANE


def _forget_lane() -> None:
    """A forked child inherits the lane's futures but not its threads."""
    global _LANE
    _LANE = None
    _BLOB_CACHE.clear()


os.register_at_fork(after_in_child=_forget_lane)


def _compressor(family: str):
    if family == "zlib":
        return zlib.compressobj(6)
    return bz2.BZ2Compressor(9)


def _compress_pages(family: str, pages: list[bytes]) -> bytes:
    """The codec over the joined pages: pure, so it may run on the lane."""
    compressor = _compressor(family)
    return compressor.compress(b"".join(pages)) + compressor.flush()


def _content_key(family: str, pages: list[bytes]) -> tuple[str, bytes]:
    digest = hashlib.sha256()
    for page in pages:
        digest.update(page)
    return family, digest.digest()


class _CompressApp(StreamingApp):
    """Shared body for gzip/bzip2 compressors."""

    suffix = ".z"
    family = "zlib"

    def begin(self, ctx: ExecContext) -> None:
        self._analytic = False
        self._compressor = None  # created on spill only
        self._out: list[bytes] = []
        # buffered input (memo path); None while the lane has the input or
        # after a spill
        self._pending: list[bytes] | None = []
        self._pending_size = 0
        self._peeked: list[bytes] | None = None  # the lane task's input
        self._matched = 0  # streamed pages checked against it so far
        self._future: Future | None = None
        fs = ctx.fs
        path = self.input_file(ctx)
        if fs.stat(path).size <= _MEMO_LIMIT:
            pages = fs.peek_pages(path)
            if pages is not None:
                self._future = self._submit(pages)
                self._peeked = pages
                self._pending = None

    def _submit(self, pages: list[bytes]) -> Future:
        """The memo's future of the blob of ``pages``, submitted to the lane
        on a miss."""
        key = _content_key(self.family, pages)
        future = _BLOB_CACHE.get(key)
        if future is None:
            future = _lane().submit(_compress_pages, self.family, pages)
            _BLOB_CACHE.put(key, future)
            LANE_COUNTS["tasks"] += 1
        return future

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        peeked = self._peeked
        if peeked is not None:
            # the stream was sized in the same step as the peek, so it has
            # one page per peeked page
            index = self._matched
            if chunk is peeked[index] or chunk == peeked[index]:
                self._matched = index + 1
                return
            self._fall_back()
        pending = self._pending
        if pending is not None:
            pending.append(chunk)
            self._pending_size += len(chunk)
            if self._pending_size > _MEMO_LIMIT:
                self._spill()
        else:
            self._out.append(self._compressor.compress(chunk))

    def _fall_back(self) -> None:
        """The streamed input left the peeked one: buffer what was streamed."""
        self._pending = self._peeked[: self._matched]
        self._pending_size = sum(map(len, self._pending))
        self._peeked = self._future = None
        LANE_COUNTS["fallbacks"] += 1

    def _spill(self) -> None:
        """Input too large to memoize: switch to plain streaming."""
        self._compressor = _compressor(self.family)
        compress = self._compressor.compress
        self._out.extend(compress(chunk) for chunk in self._pending)
        self._pending = None

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        out_name = path + self.suffix
        if self._analytic:
            out_size = max(1, int(total_bytes * ANALYTIC_COMPRESSION_RATIO[self.name]))
            yield from ctx.write_file(out_name, None, size=out_size)
        else:
            if self._future is not None:
                blob = self._future.result()
            elif self._pending is not None:
                blob = self._submit(self._pending).result()
            else:
                self._out.append(self._compressor.flush())
                blob = b"".join(self._out)
            out_size = len(blob)
            yield from ctx.write_file(out_name, blob)
        ratio = out_size / total_bytes if total_bytes else 0.0
        return ExitStatus(
            code=0,
            stdout=out_name.encode(),
            detail={"input_bytes": total_bytes, "output_bytes": out_size, "ratio": ratio},
        )


class GzipApp(_CompressApp):
    """``gzip FILE`` -> FILE.gz (original kept, like ``gzip -k``)."""

    name = "gzip"
    suffix = ".gz"
    family = "zlib"


class Bzip2App(_CompressApp):
    """``bzip2 FILE`` -> FILE.bz2 (original kept)."""

    name = "bzip2"
    suffix = ".bz2"
    family = "bz2"


class _DecompressApp(StreamingApp):
    """Shared body for gunzip/bunzip2."""

    suffix = ".z"
    family = "zlib"

    def begin(self, ctx: ExecContext) -> None:
        self._out: list[bytes] = []
        self._decompressor = (
            zlib.decompressobj() if self.family == "zlib" else bz2.BZ2Decompressor()
        )
        self._analytic = False

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        self._out.append(self._decompressor.decompress(chunk))

    def output_name(self, path: str) -> str:
        if path.endswith(self.suffix):
            return path[: -len(self.suffix)]
        return path + ".out"

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        out_name = self.output_name(path)
        if self._analytic:
            ratio = ANALYTIC_COMPRESSION_RATIO[self.compress_name]
            out_size = max(1, int(total_bytes / ratio))
            yield from ctx.write_file(out_name, None, size=out_size)
        else:
            blob = b"".join(self._out)
            out_size = len(blob)
            yield from ctx.write_file(out_name, blob)
        return ExitStatus(
            code=0,
            stdout=out_name.encode(),
            detail={"input_bytes": total_bytes, "output_bytes": out_size},
        )

    compress_name = "gzip"


class GunzipApp(_DecompressApp):
    """``gunzip FILE.gz`` -> FILE."""

    name = "gunzip"
    suffix = ".gz"
    family = "zlib"
    compress_name = "gzip"


class Bunzip2App(_DecompressApp):
    """``bunzip2 FILE.bz2`` -> FILE."""

    name = "bunzip2"
    suffix = ".bz2"
    family = "bz2"
    compress_name = "bzip2"
