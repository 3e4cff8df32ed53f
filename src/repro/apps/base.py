"""Shared application machinery: streaming scans with cycle accounting, and
the bounded process-wide memos that let apps skip repeated host-side work."""

from __future__ import annotations

from typing import Generator

from repro.analysis.calibration import cycles_for
from repro.isos.loader import ExecContext, ExitStatus

__all__ = [
    "PayloadMemo",
    "StreamingApp",
    "UsageError",
    "charge",
    "clear_payload_cache",
    "clears_with_payloads",
]

#: Entry bound of every :class:`PayloadMemo`.
_PAYLOAD_MEMO_MAX = 1024
#: Every memo, and the counters kept beside them, that
#: :func:`clear_payload_cache` empties.
_PAYLOAD_MEMOS: list[dict] = []


class PayloadMemo(dict):
    """A process-wide memo of a pure host-side payload function.

    Holds at most 1,024 entries and evicts the oldest insertion first.
    Lookups are plain ``dict.get``; :meth:`put` is the only way in, so the
    bound holds.  Every memo registers itself for :func:`clear_payload_cache`.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        _PAYLOAD_MEMOS.append(self)

    def put(self, key, value) -> None:
        if len(self) >= _PAYLOAD_MEMO_MAX:
            del self[next(iter(self))]
        self[key] = value


def clears_with_payloads(counts: dict) -> dict:
    """Register ``counts`` (kept beside a memo) to be emptied by
    :func:`clear_payload_cache`; returns it."""
    _PAYLOAD_MEMOS.append(counts)
    return counts


def clear_payload_cache() -> None:
    """Drop every memoized payload (codec outputs and page scans) and the
    counters kept beside them."""
    for memo in _PAYLOAD_MEMOS:
        memo.clear()


class UsageError(Exception):
    """Bad command-line arguments (maps to exit code 2, like coreutils)."""


def charge(ctx: ExecContext, app: str, nbytes: int) -> Generator:
    """Charge the calibrated cycle cost for processing ``nbytes``."""
    yield from ctx.compute(cycles_for(app, ctx.isa, nbytes))
    return None


class StreamingApp:
    """Base for apps that scan one input file page by page.

    Subclasses set ``name``, override :meth:`begin`, :meth:`consume` and
    :meth:`finish`.  ``consume`` receives ``(chunk_or_None, valid_len)`` per
    page *after* the cycle cost has been charged, so timing holds in both
    functional and analytic mode.

    IO and compute overlap with a readahead depth of one page (as OS
    readahead gives a real scan): while the CPU chews page N, page N+1 is
    already in flight from flash — so a scan's wall time approaches
    ``max(IO, compute)`` instead of their sum.
    """

    name = "streaming-app"

    def input_file(self, ctx: ExecContext) -> str:
        """Which positional argument is the input (default: the last)."""
        if not ctx.args:
            raise UsageError(f"{self.name}: missing input file")
        return ctx.args[-1]

    def run(self, ctx: ExecContext) -> Generator:
        try:
            path = self.input_file(ctx)
        except UsageError as exc:
            return ExitStatus(code=2, stdout=str(exc).encode())
        if not ctx.fs.exists(path):
            return ExitStatus(code=1, stdout=f"{self.name}: {path}: no such file".encode())
        self.begin(ctx)
        stream = ctx.stream_pages(path)
        total = 0
        pending = None
        ra_name = self.name + ".ra"
        if not stream.exhausted:
            pending = ctx.sim.process(stream.next_page(), name=ra_name)
        while pending is not None:
            chunk, take = yield pending
            if stream.error is not None:
                return stream.error_status(self.name)
            pending = (
                ctx.sim.process(stream.next_page(), name=ra_name)
                if not stream.exhausted
                else None
            )
            # charge() inlined: one less generator frame for every event of
            # every page's compute slice to bubble through.
            yield from ctx.compute(cycles_for(self.name, ctx.isa, take))
            self.consume(ctx, chunk, take)
            total += take
        status = yield from self.finish(ctx, path, total)
        return status

    # -- hooks -------------------------------------------------------------
    def begin(self, ctx: ExecContext) -> None:  # pragma: no cover - trivial default
        pass

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        raise NotImplementedError

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover
