"""Shell command parsing.

CompStor accepts "Linux shell commands/scripts" as off-loadable work.  The
model supports:

- single commands: ``grep -c pattern books.txt``
- pipelines: ``gunzip file.gz | grep pattern`` (stage N's stdout feeds
  stage N+1's stdin);
- scripts: newline-/semicolon-separated command sequences.

Parsing uses POSIX quoting rules via :mod:`shlex`.  A serving run submits
the same few command lines thousands of times, so pipelines are parsed once
into tuples and memoized (bounded); callers get fresh lists every time, and
a malformed line raises on every call, since errors are never cached.

A pipeline of printable ASCII and tabs with no quote or backslash needs no
shlex: POSIX splitting of it is ``str.split`` on its spaces and
tabs, and each of its ``|`` characters separates two stages.  Such lines
(among them every object PUT's ``chunksum`` line, unique per key, so the
memo never hits it) take that path; every other line goes through shlex.
"""

from __future__ import annotations

import re
import shlex
from functools import lru_cache

__all__ = ["ShellError", "parse_command_line", "split_pipeline", "split_script"]


class ShellError(Exception):
    """Malformed command line."""


#: Finds a character after which shlex and ``str.split`` may differ:
#: anything outside printable ASCII and tab, a quote or a backslash.  (``#``
#: is an ordinary character: ``shlex.split`` does not strip comments.)
_NEEDS_SHLEX = re.compile(r"[^\t -~]|['\"\\]").search


def parse_command_line(line: str) -> list[str]:
    """Tokenise one command into argv (POSIX quoting)."""
    try:
        argv = shlex.split(line, posix=True)
    except ValueError as exc:
        raise ShellError(f"cannot parse {line!r}: {exc}") from exc
    if not argv:
        raise ShellError("empty command")
    return argv


def split_pipeline(line: str) -> list[list[str]]:
    """Split on ``|`` (outside quotes) and tokenise each stage."""
    return [list(stage) for stage in _parse_pipeline(line)]


@lru_cache(maxsize=256)
def _parse_pipeline(line: str) -> tuple[tuple[str, ...], ...]:
    if _NEEDS_SHLEX(line) is None:
        argvs = (stage.split() for stage in line.split("|"))
        parsed = tuple(tuple(argv) for argv in argvs if argv)
    else:
        parsed = tuple(
            tuple(parse_command_line(stage))
            for stage in _quoted_stages(line)
            if stage.strip()
        )
    if not parsed:
        raise ShellError("empty pipeline")
    return parsed


def _quoted_stages(line: str) -> list[str]:
    """``line`` split on every ``|`` outside single or double quotes."""
    stages: list[str] = []
    current: list[str] = []
    depth_quote: str | None = None
    for ch in line:
        if depth_quote:
            if ch == depth_quote:
                depth_quote = None
            current.append(ch)
        elif ch in "'\"":
            depth_quote = ch
            current.append(ch)
        elif ch == "|":
            stages.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth_quote:
        raise ShellError(f"unterminated quote in {line!r}")
    stages.append("".join(current))
    return stages


def split_script(script: str) -> list[str]:
    """Split a script into command lines on newlines and ``;``."""
    lines: list[str] = []
    for raw in script.replace(";", "\n").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    if not lines:
        raise ShellError("empty script")
    return lines
