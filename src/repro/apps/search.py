"""Search applications: grep and a gawk-style field scanner.

These are the paper's IO-intensive workloads: little computation per byte,
dominated by how fast bytes can reach the core — which is exactly where the
in-situ flash path beats the host's PCIe path.

``grep`` supports ``-c`` (count only, the default output) and ``-i``
(case-insensitive).  Matching is line-based on raw bytes; a pattern that
straddles a page boundary is handled by carrying the unterminated tail line
into the next chunk.

``gawk`` models the common one-liner ``gawk '/pat/ {n++; s+=NF} END {...}'``:
it counts matching lines and accumulates field statistics, costing more
cycles per byte than grep (field splitting).

A serving run greps the same few books thousands of times.  What one page
adds to grep's and gawk's counters, and the carry it leaves, is a pure
function of ``(app, pattern, -i, incoming carry, page bytes)``, so both
memoize it process-wide (bounded, see :class:`~repro.apps.base.PayloadMemo`)
and a repeated page costs one dict lookup.  The filesystem hands up the page
object flash holds, whose hash CPython caches, so the lookup does not rehash
16 KiB.  Cycles are still charged and pages still read per request, so the
memo is invisible to schedules, traces and golden digests.  ``filter``
returns the matched lines themselves and keeps the per-line path.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.base import PayloadMemo, StreamingApp, UsageError
from repro.isos.loader import ExecContext, ExitStatus

__all__ = ["FilterApp", "GawkApp", "GrepApp"]

#: (app, pattern, fold_case, carry, page) -> (lines, matches, fields, carry')
_SCAN_MEMO = PayloadMemo()


class _LineScanner(StreamingApp):
    """Streaming line-splitter with page-boundary carry."""

    def input_file(self, ctx: ExecContext) -> str:
        positional = [a for a in ctx.args if not a.startswith("-")]
        if len(positional) < 2:
            raise UsageError(f"{self.name}: usage: {self.name} [flags] PATTERN FILE")
        return positional[-1]

    def begin(self, ctx: ExecContext) -> None:
        positional = [a for a in ctx.args if not a.startswith("-")]
        self.flags = {a for a in ctx.args if a.startswith("-")}
        self.fold_case = "-i" in self.flags
        self.pattern = positional[0].encode()
        if self.fold_case:
            self.pattern = self.pattern.lower()
        self._carry = b""
        self._analytic = False
        self.lines_seen = 0
        self.setup()

    def setup(self) -> None:
        pass

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        data = self._carry + chunk
        cut = data.rfind(b"\n")
        if cut < 0:
            self._carry = data  # no complete line yet
            return
        self._carry = data[cut + 1:]  # unterminated tail
        self.scan_block(data[: cut + 1])

    def scan_block(self, block: bytes) -> None:
        """Process a block of *complete* lines (ends with a newline).

        The default walks line by line; count-only subclasses override it
        with whole-block scans (``bytes.find`` / ``bytes.count`` run in C,
        so they beat any per-line Python loop by an order of magnitude).
        """
        lines = block.split(b"\n")
        lines.pop()  # split artifact after the final newline
        for line in lines:
            self.lines_seen += 1
            self.on_line(line)

    def drain(self) -> None:
        if self._carry:
            self.lines_seen += 1
            self.on_line(self._carry)
            self._carry = b""

    def on_line(self, line: bytes) -> None:
        raise NotImplementedError


class _CountingScanner(_LineScanner):
    """Count-only scanner whose per-page work goes through ``_SCAN_MEMO``."""

    def setup(self) -> None:
        self.matches = 0
        self.fields_total = 0  # grep leaves it at 0

    def consume(self, ctx: ExecContext, chunk: bytes | None, take: int) -> None:
        if chunk is None:
            self._analytic = True
            return
        key = (self.name, self.pattern, self.fold_case, self._carry, chunk)
        hit = _SCAN_MEMO.get(key)
        if hit is None:
            lines, matches, fields = self.lines_seen, self.matches, self.fields_total
            super().consume(ctx, chunk, take)
            _SCAN_MEMO.put(key, (self.lines_seen - lines, self.matches - matches,
                                 self.fields_total - fields, self._carry))
            return
        lines, matches, fields, self._carry = hit
        self.lines_seen += lines
        self.matches += matches
        self.fields_total += fields


class GrepApp(_CountingScanner):
    """``grep [-c] [-i] PATTERN FILE``."""

    name = "grep"

    def on_line(self, line: bytes) -> None:
        haystack = line.lower() if self.fold_case else line
        if self.pattern in haystack:
            self.matches += 1

    def scan_block(self, block: bytes) -> None:
        # Count matching lines without materialising them: find the next
        # occurrence, skip to the end of its line, repeat.  Lowercasing the
        # whole block for -i matches the per-line lowering exactly (\n is
        # unaffected by lower()).
        if self.fold_case:
            block = block.lower()
        self.lines_seen += block.count(b"\n")
        find = block.find
        pos = find(self.pattern)
        while pos >= 0:
            self.matches += 1
            nl = find(b"\n", pos)
            if nl < 0:
                break
            pos = find(self.pattern, nl + 1)

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        self.drain()
        if self._analytic:
            return ExitStatus(
                code=0,
                stdout=b"",
                detail={"bytes_scanned": total_bytes, "analytic": True},
            )
        # real grep exits 1 when nothing matched
        code = 0 if self.matches else 1
        return ExitStatus(
            code=code,
            stdout=str(self.matches).encode(),
            detail={"matches": self.matches, "lines": self.lines_seen,
                    "bytes_scanned": total_bytes},
        )
        yield  # pragma: no cover - generator protocol


class FilterApp(_LineScanner):
    """``filter PATTERN FILE`` — emit the matching lines themselves.

    Unlike ``grep -c`` (whose result is a few bytes regardless of input),
    filter's output scales with the match *selectivity* — and the output is
    exactly what travels back over the storage interface when run in-situ.
    The selectivity ablation bench uses this to locate the point where
    shipping results costs as much as shipping the data.
    """

    name = "filter"

    def setup(self) -> None:
        self.matched: list[bytes] = []

    def on_line(self, line: bytes) -> None:
        haystack = line.lower() if self.fold_case else line
        if self.pattern in haystack:
            self.matched.append(line)

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        self.drain()
        if self._analytic:
            return ExitStatus(code=0, stdout=b"",
                              detail={"bytes_scanned": total_bytes, "analytic": True})
        stdout = b"\n".join(self.matched)
        return ExitStatus(
            code=0 if self.matched else 1,
            stdout=stdout,
            detail={
                "matches": len(self.matched),
                "bytes_scanned": total_bytes,
                "bytes_emitted": len(stdout),
                "selectivity": len(stdout) / total_bytes if total_bytes else 0.0,
            },
        )
        yield  # pragma: no cover - generator protocol


class GawkApp(_CountingScanner):
    """``gawk PATTERN FILE`` — match + field statistics per line."""

    name = "gawk"

    def on_line(self, line: bytes) -> None:
        fields = line.split()
        self.fields_total += len(fields)
        if self.pattern in line:
            self.matches += 1

    def scan_block(self, block: bytes) -> None:
        # Fields never span a newline, so splitting the whole block on
        # whitespace gives the same total as summing per-line splits.
        self.lines_seen += block.count(b"\n")
        self.fields_total += len(block.split())
        find = block.find
        pos = find(self.pattern)
        while pos >= 0:
            self.matches += 1
            nl = find(b"\n", pos)
            if nl < 0:
                break
            pos = find(self.pattern, nl + 1)

    def finish(self, ctx: ExecContext, path: str, total_bytes: int) -> Generator:
        self.drain()
        if self._analytic:
            return ExitStatus(code=0, stdout=b"", detail={"bytes_scanned": total_bytes,
                                                          "analytic": True})
        out = f"{self.matches} {self.fields_total}"
        return ExitStatus(
            code=0,
            stdout=out.encode(),
            detail={
                "matches": self.matches,
                "fields": self.fields_total,
                "lines": self.lines_seen,
                "bytes_scanned": total_bytes,
            },
        )
        yield  # pragma: no cover - generator protocol
