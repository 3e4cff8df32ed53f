"""Reach audit: which functions in ``src/repro`` do the entry points call?

Runs every user-facing entry point of the repository (the CLI verbs, the
examples, the top-level benches and the end-to-end benchmark) in child
processes under a ``sys.setprofile``/``threading.setprofile`` hook, and
records the ``(file, first line)`` of each ``src/repro`` function called in
any process or thread.  Then it compares that set with every module- and
class-level ``def`` in ``src/repro``.  It fails on a ``def`` that no entry
point reached unless ``benchmarks/reach_allowlist.txt`` keeps it with a tag
that says why (see :data:`TAGS`), and on an allowlist line whose ``def`` was
reached after all.  A test calling a ``def`` does not keep it.

Usage (from any directory; no flags, no environment variables)::

    python benchmarks/reach.py

It takes 3 to 4 minutes on 2 cores; the end-to-end benchmark alone runs
about 90 s under the hook.  Calls are matched to ``def``s by line number,
and the ``def``s are read when the runs end, so leave ``src/`` unedited
while it runs.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")

#: Why an unreached ``def`` may stay.  There is no tag for "a test calls it".
TAGS = {
    "oracle": "tests compare the model against it",
    "fault": "an error or fault path",
    "flag": "reached only when a flag or option is set",
    "protocol": "a protocol or abstract-base stub",
    "executable": "part of the ISPS command catalog",
    "boundary": "named by benchmarks/e2e/layers.py",
    "subprocess": "a worker target of the parallel runner's self-test",
}

_REPRO = ("-m", "repro")

#: The arguments after the interpreter, each run from the repository root
#: with a throwaway result cache.  The verbs run at their default presets; ``fig6 --set seed=3`` runs twice, so the result
#: cache both stores and hits; ``fig6 --workers 2`` runs its cells in spawned
#: workers.  The benches run with ``--benchmark-disable`` because
#: pytest-benchmark clears the profile hook around each measured call.
ENTRY_POINTS: tuple[tuple[str, ...], ...] = (
    *((*_REPRO, verb) for verb in (
        "fig1", "fig6", "fig7", "fig8", "traffic", "drill", "objstore",
        "backends", "validate", "chaos", "smart", "table1", "metrics",
        "quickstart",
    )),
    (*_REPRO, "config", "show"),
    (*_REPRO, "config", "digest"),
    (*_REPRO, "config", "presets"),
    (*_REPRO, "config", "diff", "smoke", "fig6"),
    (*_REPRO, "chaos", "--kill", "0@0.5"),
    (*_REPRO, "chaos", "--random", "3"),
    (*_REPRO, "fig6", "--set", "seed=3"),
    (*_REPRO, "fig6", "--set", "seed=3"),
    (*_REPRO, "fig6", "--workers", "2", "--no-cache"),
    *((f"examples/{path.name}",) for path in sorted((ROOT / "examples").glob("*.py"))),
    ("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
     "--ignore=benchmarks/e2e", "-m", "", "--benchmark-disable"),
    ("benchmarks/e2e/run.py", "--trace", "0", "--seconds", "1"),
)

#: Installed in every child interpreter as ``sitecustomize``: record the code
#: object of every call and write the ``src/repro`` ones out at exit.
_HOOK = '''\
import atexit, os, sys, threading

_codes = set()


def _hook(frame, event, arg, _add=_codes.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    lines = {{
        f"{{os.path.realpath(code.co_filename)}}\\t{{code.co_firstlineno}}\\n"
        for code in list(_codes)
        if {package!r} in code.co_filename
    }}
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as out:
        out.writelines(sorted(lines))


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every module- and class-level ``def`` in ``src/repro``.

    Maps ``(path, first line)`` to ``(name, lines)``.  The first line is the
    first decorator's, which is the line a code object reports; ``path`` is
    relative to ``src/repro`` and ``name`` is the qualified name.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(body, rel: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[rel, first] = (prefix + node.name, node.end_lineno - first + 1)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, rel, f"{prefix}{node.name}.")
            else:  # if/try/with blocks at module or class level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, ()), rel, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(), str(path)).body, rel, "")
    return found


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str, str]]:
    """``(def, tag, reason)`` per line; ``def`` is ``path:Qualified.name``."""
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, tag, reason = (line.split(None, 2) + ["", ""])[:3]
            entries.append((name, tag, reason))
    return entries


def run_entry_points(hook_dir: Path, cache: Path) -> list[str]:
    """Run every entry point under the hook; return the ones that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    env["REPRO_CACHE_DIR"] = str(cache)
    failed = []
    for argv in ENTRY_POINTS:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        print(f"  exit {proc.returncode}  {' '.join(argv)}", file=sys.stderr)
        if proc.returncode != 0:
            failed.append(f"{' '.join(argv)} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return failed


def reached(out: Path) -> set[tuple[str, int]]:
    """``(path relative to src/repro, first line)`` of every recorded call."""
    package = str(PACKAGE.resolve()) + os.sep
    calls = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.split("\t")
            if filename.startswith(package):
                calls.add((Path(filename[len(package):]).as_posix(), int(first)))
    return calls


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out, hook_dir, cache = Path(tmp, "calls"), Path(tmp, "hook"), Path(tmp, "cache")
        for directory in (out, hook_dir, cache):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            _HOOK.format(package=str(PACKAGE.resolve()) + os.sep, out=str(out))
        )
        failed = run_entry_points(hook_dir, cache)
        calls = reached(out)

    defs = definitions()
    by_name: dict[str, list[tuple[str, int]]] = {}
    for (rel, first), (name, _lines) in defs.items():
        by_name.setdefault(f"{rel}:{name}", []).append((rel, first))
    allowed = {name for name, _tag, _reason in read_allowlist()}
    unreached = {key for key in defs if key not in calls}

    unlisted = sorted(
        f"{rel}:{defs[rel, first][0]} (line {first}, {defs[rel, first][1]} lines)"
        for rel, first in unreached
        if f"{rel}:{defs[rel, first][0]}" not in allowed
    )
    stale = sorted(
        name for name in allowed
        if name in by_name and not any(key in unreached for key in by_name[name])
    )
    missing = sorted(name for name in allowed if name not in by_name)
    print(
        f"reach: {len(defs)} defs, {len(defs) - len(unreached)} reached, "
        f"{len(unreached)} unreached ({sum(defs[k][1] for k in unreached)} lines), "
        f"{len(allowed)} allowlisted"
    )
    problems = [
        ("entry points that failed", failed),
        ("unreached defs not on the allowlist", unlisted),
        ("allowlisted defs that were reached", stale),
        ("allowlisted defs that do not exist", missing),
    ]
    for title, items in problems:
        if items:
            print(f"{title}:\n  " + "\n  ".join(items))
    return 1 if any(items for _title, items in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
