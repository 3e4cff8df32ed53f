"""Source lint: determinism leaks.

Every run of the simulator must be reproducible from ``(seed, model)``.
Two classes of code break that silently:

* **unseeded randomness** — ``random.random()``, the global numpy RNG
  (``np.random.rand`` etc.), or ``random.seed()`` resetting global state;
  all model randomness must flow through ``Simulator.rng(stream)``;
* **wall-clock reads** — ``time.time()``, ``perf_counter``,
  ``datetime.now``: simulation time is ``sim.now``, never the host clock;
* **host threads** — ``threading`` and ``ThreadPoolExecutor``: a thread
  that touched simulator state would make a schedule depend on how the
  host interleaves threads.

This test greps ``src/`` and the test trees for both.  The perf harness
measures the host *on purpose* and is allowlisted, as are the benchmark
files that time best-of-N loops.  Add to the allowlist only with a comment
saying why the file genuinely needs the host clock or ambient entropy.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: (pattern, reason) pairs; patterns are matched per source line.
FORBIDDEN: list[tuple[re.Pattern, str]] = [
    (
        re.compile(
            r"\brandom\.(random|randint|choice|shuffle|uniform|sample|"
            r"randrange|gauss|seed)\s*\("
        ),
        "stdlib global RNG (use Simulator.rng)",
    ),
    (
        re.compile(
            r"\b(np|numpy)\.random\.(rand|randn|randint|random|seed|choice|"
            r"shuffle|uniform|normal)\s*\("
        ),
        "numpy global RNG (use Simulator.rng)",
    ),
    (
        re.compile(r"\btime\.(time|perf_counter|monotonic|process_time)\s*\("),
        "wall clock (use sim.now)",
    ),
    (
        re.compile(r"\bdatetime\.(now|utcnow|today)\s*\("),
        "wall clock (use sim.now)",
    ),
]

#: Files that measure the host deliberately.
ALLOWLIST = {
    "src/repro/parallel/jobs.py",  # per-job wall timing (host, not model)
    "src/repro/parallel/runner.py",  # run wall timing (host, not model)
    "benchmarks/test_fault_overhead.py",  # best-of-N wall timing
    "benchmarks/test_obs_overhead.py",  # best-of-N wall timing
    "tests/test_rng_wallclock_lint.py",  # this file quotes the patterns
}


#: Host threads may appear only here, each with the reason no schedule
#: can depend on them.
THREADS = re.compile(r"\b(threading|ThreadPoolExecutor)\b")
THREAD_ALLOWLIST = {
    # the gzip/bzip2 codec lane: its workers run a pure codec over their
    # arguments and touch no simulator state; only the simulator's thread
    # reads the memo and waits on the futures, at points the schedule fixes
    "src/repro/apps/compress.py",
    # the reach audit sets a profile hook for threads in the interpreters it
    # starts (threading.setprofile); it starts no thread and runs no model
    "benchmarks/reach.py",
    "tests/test_rng_wallclock_lint.py",  # this file quotes the pattern
}


def _source_files() -> list[Path]:
    files: list[Path] = []
    for tree in ("src", "tests", "benchmarks"):
        files.extend(sorted((REPO / tree).rglob("*.py")))
    assert files, "lint found no sources — repo layout changed?"
    return files


def test_no_unseeded_rng_or_wallclock():
    violations: list[str] = []
    for path in _source_files():
        rel = path.relative_to(REPO).as_posix()
        if rel in ALLOWLIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0]  # ignore commented-out code
            for pattern, reason in FORBIDDEN:
                if pattern.search(stripped):
                    violations.append(f"{rel}:{lineno}: {reason}: {line.strip()}")
    assert not violations, "determinism leaks found:\n" + "\n".join(violations)


def test_host_threads_only_in_the_codec_lane():
    violations = [
        f"{rel}:{lineno}: {line.strip()}"
        for path in _source_files()
        if (rel := path.relative_to(REPO).as_posix()) not in THREAD_ALLOWLIST
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if THREADS.search(line.split("#", 1)[0])
    ]
    assert not violations, "host threads outside the codec lane:\n" + "\n".join(violations)


def test_allowlist_entries_exist():
    """Stale allowlist entries hide future violations under old names."""
    missing = [rel for rel in sorted(ALLOWLIST | THREAD_ALLOWLIST) if not (REPO / rel).exists()]
    assert not missing, f"allowlisted files no longer exist: {missing}"
