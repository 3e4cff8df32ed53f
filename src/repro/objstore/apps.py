"""The in-situ executable of the dedup object store.

``chunksum MIN AVG MAX FILE`` is the dedup store's write-path offload:
content-defined chunking plus per-chunk SHA-1 digests computed *inside the
drive*, so a PUT ships the payload to its primary device once and only the
chunk digests — a few dozen bytes per chunk — cross PCIe back to the
coordinator.  Hashing is the textbook compute-intensive offload (In-storage
Processing of I/O Intensive Applications, PAPERS.md); this app is its
write-side twin of ``sha1sum``.
"""

from __future__ import annotations

import hashlib
from typing import Generator

from repro.analysis.calibration import CYCLES_PER_BYTE
from repro.apps.base import StreamingApp, UsageError
from repro.isos.loader import ExecContext, ExitStatus
from repro.objstore.chunking import ChunkParams, Chunker

__all__ = ["ChunkSumApp"]

# chunksum costs what sha1sum costs: the gear hash is a shift-add per byte,
# dwarfed by the per-chunk SHA-1 that dominates the same way sha1sum's does
CYCLES_PER_BYTE.setdefault("chunksum", dict(CYCLES_PER_BYTE["sha1sum"]))


class ChunkSumApp(StreamingApp):
    """``chunksum MIN AVG MAX FILE`` — CDC boundaries + per-chunk SHA-1.

    Stdout is one ``<sha1hex> <length>`` line per chunk, in payload order —
    the complete dedup recipe for the file, a few dozen bytes per ~4 KiB
    chunk.  The incremental :class:`Chunker` is the same class the host-side
    tooling uses, so boundaries agree by construction even though this app
    sees the payload one flash page at a time.
    """

    name = "chunksum"

    def input_file(self, ctx: ExecContext) -> str:
        if len(ctx.args) != 4:
            raise UsageError("usage: chunksum MIN AVG MAX FILE")
        try:
            self._params = ChunkParams(
                min_size=int(ctx.args[0]),
                avg_size=int(ctx.args[1]),
                max_size=int(ctx.args[2]),
            )
        except ValueError as exc:
            raise UsageError(f"chunksum: {exc}") from exc
        return ctx.args[3]

    def begin(self, ctx: ExecContext) -> None:
        self._chunker = Chunker(self._params)
        self._tail = hashlib.sha1()  # digest of the bytes since the last boundary
        self._tail_len = 0
        self._chunks: list[tuple[str, int]] = []
        self._analytic = False

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        # A chunk that spans a page seam is hashed incrementally: only the
        # open chunk's SHA-1 state crosses to the next page, never its bytes.
        page = memoryview(chunk)
        offset = 0
        for length in self._chunker.update(chunk):
            end = offset + length - self._tail_len
            self._tail.update(page[offset:end])
            self._chunks.append((self._tail.hexdigest(), length))
            self._tail = hashlib.sha1()
            self._tail_len = 0
            offset = end
        self._tail.update(page[offset:])
        self._tail_len += len(page) - offset

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        if self._analytic:
            return ExitStatus(
                code=0, stdout=b"", detail={"analytic": True, "bytes": total_bytes}
            )
        tail_len = self._chunker.finish()
        if tail_len is not None:
            self._chunks.append((self._tail.hexdigest(), tail_len))
        out = "\n".join(f"{digest} {length}" for digest, length in self._chunks)
        return ExitStatus(
            code=0,
            stdout=out.encode(),
            detail={"chunks": len(self._chunks), "bytes": total_bytes},
        )
        yield  # pragma: no cover - generator protocol
