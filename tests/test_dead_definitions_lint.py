"""Source lint: definitions nothing uses.

A ``def`` in ``src/repro`` whose name appears nowhere else in ``src/``,
``tests/``, ``examples/`` or ``benchmarks/`` is dead: no caller, no test,
no example, no override reaches it. Dead members still cost a reader, and
they let copies of one fact drift apart unnoticed, so the lint fails on
them. The scan is by token: a name counts as used where code names it or
where a string holds it as a word (``benchmarks/e2e/layers.py`` wraps
methods it names in strings), but not where only a comment mentions it.

Dunder methods are exempt: the interpreter calls them through syntax
(``registry[name]`` reaches ``__getitem__``). Add to the allowlist only
with a comment saying who calls the definition.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "examples", "benchmarks")

#: Definition names kept although no scanned file names them, each with why.
ALLOWLIST: dict[str, str] = {}


def _sources() -> list[Path]:
    this = Path(__file__).resolve()
    return [
        path
        for tree in TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        if path.resolve() != this  # the allowlist would count as a use
    ]


#: Token types that carry string text (3.12 splits f-strings into parts).
_TEXT = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def mentions(source: str) -> Counter[str]:
    """Names in ``source``'s code and words in its strings; comments are
    skipped."""
    words: Counter[str] = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            words[token.string] += 1
        elif token.type in _TEXT:
            words.update(re.findall(r"\w+", token.string))
    return words


def dead_definitions() -> list[str]:
    """``path:line name`` for every unreferenced def under ``src/repro``."""
    sources = _sources()
    words: Counter[str] = Counter()
    for path in sources:
        words.update(mentions(path.read_text()))
    dead = []
    for path in sources:
        if not path.is_relative_to(REPO / "src" / "repro"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in ALLOWLIST:
                continue
            if words[name] <= 1:  # the def itself is the only occurrence
                dead.append(f"{path.relative_to(REPO)}:{node.lineno} {name}")
    return dead


def test_every_definition_in_src_is_used():
    dead = dead_definitions()
    assert not dead, "definitions nothing references:\n  " + "\n  ".join(dead)



def test_a_comment_is_not_a_use():
    source = "def helper():\n    pass\n# helper() inlined below\nx = 'calls helper'\n"
    counted = mentions(source)
    assert counted["helper"] == 2  # the def and the string, not the comment
    assert counted["inlined"] == 0
