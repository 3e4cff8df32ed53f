"""More coreutils: head, tail, uniq.

Further witnesses for the "any Linux shell command runs in-place" claim,
and useful stages for in-storage script pipelines (e.g. ``head`` to sample
a shard before deciding to run the full scan).
"""

from __future__ import annotations

from typing import Generator

from repro.analysis.calibration import ARM_ISA, CYCLES_PER_BYTE, XEON_ISA
from repro.apps.base import StreamingApp, UsageError
from repro.isos.loader import ExecContext, ExitStatus

__all__ = ["HeadApp", "SortApp", "TailApp", "UniqApp"]

CYCLES_PER_BYTE.setdefault("head", {XEON_ISA: 2.0, ARM_ISA: 6.0})
CYCLES_PER_BYTE.setdefault("tail", {XEON_ISA: 2.0, ARM_ISA: 6.0})
CYCLES_PER_BYTE.setdefault("uniq", {XEON_ISA: 8.0, ARM_ISA: 22.0})


def _line_count_arg(ctx: ExecContext, default: int = 10) -> int:
    """Parse ``-n N`` (or the bare default)."""
    args = ctx.args
    if "-n" in args:
        index = args.index("-n")
        try:
            return int(args[index + 1])
        except (IndexError, ValueError) as exc:
            raise UsageError("-n needs an integer") from exc
    return default


class HeadApp(StreamingApp):
    """``head [-n N] FILE`` — first N lines.

    Streaming with early exit: once N lines are buffered the remaining
    pages are not read at all, so ``head`` on a huge shard is cheap — the
    point of running it in-storage before committing to a full scan.
    """

    name = "head"

    def input_file(self, ctx: ExecContext) -> str:
        positional = [a for a in ctx.args if not a.startswith("-") and not a.isdigit()]
        if not positional:
            raise UsageError("head: missing input file")
        return positional[-1]

    def run(self, ctx: ExecContext) -> Generator:
        from repro.apps.base import charge

        try:
            path = self.input_file(ctx)
            want = _line_count_arg(ctx)
        except UsageError as exc:
            return ExitStatus(code=2, stdout=str(exc).encode())
        if not ctx.fs.exists(path):
            return ExitStatus(code=1, stdout=f"head: {path}: no such file".encode())
        lines: list[bytes] = []
        carry = b""
        stream = ctx.stream_pages(path)
        while not stream.exhausted and len(lines) < want:
            chunk, take = yield from stream.next_page()
            if stream.error is not None:
                return stream.error_status(self.name)
            yield from charge(ctx, self.name, take)
            if chunk is None:
                continue
            parts = (carry + chunk).split(b"\n")
            carry = parts.pop()
            lines.extend(parts)
        if carry and len(lines) < want:
            lines.append(carry)
        out = b"\n".join(lines[:want])
        return ExitStatus(
            code=0, stdout=out,
            detail={"lines": min(want, len(lines)), "pages_read": stream.index},
        )


class TailApp(StreamingApp):
    """``tail [-n N] FILE`` — last N lines (full scan; tail has no index)."""

    name = "tail"

    def input_file(self, ctx: ExecContext) -> str:
        positional = [a for a in ctx.args if not a.startswith("-") and not a.isdigit()]
        if not positional:
            raise UsageError("tail: missing input file")
        return positional[-1]

    def begin(self, ctx: ExecContext) -> None:
        self.want = _line_count_arg(ctx)
        self._ring: list[bytes] = []
        self._carry = b""
        self._analytic = False

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        parts = (self._carry + chunk).split(b"\n")
        self._carry = parts.pop()
        self._ring.extend(parts)
        if len(self._ring) > self.want:
            del self._ring[: len(self._ring) - self.want]

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        if self._carry:
            self._ring.append(self._carry)
        out = b"" if self._analytic else b"\n".join(self._ring[-self.want:])
        return ExitStatus(code=0, stdout=out, detail={"lines": len(self._ring)})
        yield  # pragma: no cover - generator protocol


class UniqApp(StreamingApp):
    """``uniq FILE`` — collapse adjacent duplicate lines, count them."""

    name = "uniq"

    def begin(self, ctx: ExecContext) -> None:
        self._carry = b""
        self._previous: bytes | None = None
        self._out: list[bytes] = []
        self.duplicates = 0
        self._analytic = False

    def _feed(self, line: bytes) -> None:
        if line == self._previous:
            self.duplicates += 1
            return
        self._previous = line
        self._out.append(line)

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        parts = (self._carry + chunk).split(b"\n")
        self._carry = parts.pop()
        for line in parts:
            self._feed(line)

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        if self._carry:
            self._feed(self._carry)
        stdout = b"" if self._analytic else b"\n".join(self._out)
        return ExitStatus(
            code=0, stdout=stdout,
            detail={"unique": len(self._out), "duplicates": self.duplicates},
        )
        yield  # pragma: no cover - generator protocol


CYCLES_PER_BYTE.setdefault("sort", {XEON_ISA: 40.0, ARM_ISA: 110.0})


class SortApp(StreamingApp):
    """``sort FILE`` — sort lines; writes FILE.sorted and prints the count.

    Unlike the streaming scanners, sort must materialise the whole file
    (true of real ``sort`` too, up to its spill threshold); the cycle cost
    reflects comparison-heavy work.
    """

    name = "sort"

    def begin(self, ctx: ExecContext) -> None:
        self._carry = b""
        self._lines: list[bytes] = []
        self._analytic = False

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        parts = (self._carry + chunk).split(b"\n")
        self._carry = parts.pop()
        self._lines.extend(parts)

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        if self._carry:
            self._lines.append(self._carry)
        out_name = path + ".sorted"
        if self._analytic:
            yield from ctx.write_file(out_name, None, size=total_bytes)
            return ExitStatus(code=0, stdout=b"", detail={"analytic": True})
        self._lines.sort()
        blob = b"\n".join(self._lines)
        if blob:
            blob += b"\n"
        yield from ctx.write_file(out_name, blob)
        return ExitStatus(
            code=0,
            stdout=out_name.encode(),
            detail={"lines": len(self._lines), "output_bytes": len(blob)},
        )
