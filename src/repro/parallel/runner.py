"""Process-pool experiment runner with a deterministic merge.

:func:`run_jobs` shards a list of :class:`~repro.parallel.jobs.JobSpec`
across ``spawn`` workers and merges the results **in canonical (submission)
order**, never completion order, so scorecards, tables and exit codes are
byte-identical at any worker count.  The scenarios share nothing — each is
rebuilt from its own seed inside a fresh-ID process state — so throughput
grows with workers up to the physical core count, and the content-addressed
:class:`~repro.parallel.cache.ResultCache` skips any job whose code + spec
digest already has a stored result.

Failure policy: workers never raise across the pool boundary; every job
reports, then the runner raises one :class:`JobError` carrying every
traceback (canonical order).  A failed job is never cached.

Per-job telemetry flows through :mod:`repro.obs` when a registry is
passed: ``parallel.jobs.completed`` / ``parallel.jobs.cache_hits`` /
``parallel.jobs.failed`` counters (labelled per job) and the
``parallel.job.wall_seconds`` histogram.

Wall-clock note: this module times the *host* on purpose (per-job wall
seconds for the telemetry above); simulation time never appears here.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.parallel.cache import ResultCache
from repro.parallel.jobs import JobResult, JobSpec, execute_job

__all__ = ["JobError", "RunReport", "run_jobs"]


class JobError(RuntimeError):
    """One or more jobs failed; the message concatenates their tracebacks."""


@dataclass
class RunReport:
    """Everything a caller needs about one runner invocation."""

    results: list[JobResult]
    workers: int
    executed: int
    cache_hits: int
    wall_seconds: float  # whole-run wall time, not the per-job sum

    @property
    def jobs(self) -> int:
        return len(self.results)

    def values(self) -> list:
        return [r.value for r in self.results]

    def summary(self) -> str:
        """One-line, greppable run summary (the CLI prints it to stderr)."""
        return (
            f"# parallel: jobs={self.jobs}, executed={self.executed}, "
            f"cache hits={self.cache_hits}, workers={self.workers}, "
            f"wall={self.wall_seconds:.2f}s"
        )


@dataclass
class _Instruments:
    registry: MetricsRegistry = field(default=NULL_METRICS)

    def __post_init__(self) -> None:
        self.completed = self.registry.counter(
            "parallel.jobs.completed", "jobs executed (cache misses)"
        )
        self.cache_hits = self.registry.counter(
            "parallel.jobs.cache_hits", "jobs served from the result cache"
        )
        self.failed = self.registry.counter(
            "parallel.jobs.failed", "jobs that raised in a worker"
        )
        self.wall = self.registry.histogram(
            "parallel.job.wall_seconds", "per-job host wall time"
        )
        self.workers = self.registry.gauge(
            "parallel.workers", "configured worker count of the last run"
        )

    def record(self, result: JobResult) -> None:
        if result.error is not None:
            self.failed.inc(job=result.name)
            return
        if result.cached:
            self.cache_hits.inc(job=result.name)
        else:
            self.completed.inc(job=result.name)
        self.wall.observe(result.wall_seconds, job=result.name)


def _ensure_importable_children() -> tuple[str, str | None]:
    """Make sure spawn workers can ``import repro``; returns restore state.

    ``spawn`` re-executes the interpreter, which rebuilds ``sys.path`` from
    ``PYTHONPATH`` — a parent that was pointed at ``src/`` via ``sys.path``
    manipulation (editable installs, test harnesses) would otherwise hatch
    workers that cannot import the package.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    previous = os.environ.get("PYTHONPATH")
    entries = (previous or "").split(os.pathsep) if previous else []
    if src not in entries:
        os.environ["PYTHONPATH"] = (
            src if not previous else src + os.pathsep + previous
        )
    return src, previous


def _restore_pythonpath(previous: str | None) -> None:
    if previous is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = previous


def run_jobs(
    specs: Sequence[JobSpec],
    workers: int = 1,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
) -> RunReport:
    """Run every spec; return results in spec order regardless of workers.

    ``workers <= 1`` runs in-process (still hermetically: fresh global IDs
    per job), which is also the reference the parallel path must match.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"job names must be unique, got {names}")
    instruments = _Instruments(metrics if metrics is not None else NULL_METRICS)
    instruments.workers.set(workers)

    start = time.perf_counter()
    results: dict[str, JobResult] = {}
    to_run: list[JobSpec] = []
    for spec in specs:
        hit = cache.load(spec) if cache is not None else None
        if hit is not None:
            results[spec.name] = hit
        else:
            to_run.append(spec)

    if workers <= 1 or len(to_run) <= 1:
        for spec in to_run:
            results[spec.name] = execute_job(spec)
    else:
        by_future = {}
        src, previous = _ensure_importable_children()
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(to_run)), mp_context=context
            ) as pool:
                for spec in to_run:
                    by_future[pool.submit(execute_job, spec)] = spec
                pending = set(by_future)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        spec = by_future[future]
                        results[spec.name] = future.result()
        finally:
            _restore_pythonpath(previous)

    executed = 0
    for spec in specs:
        result = results[spec.name]
        instruments.record(result)
        if result.cached or result.error is not None:
            continue
        executed += 1
        if cache is not None:
            cache.store(spec, result)

    ordered = [results[name] for name in names]
    failures = [r.error for r in ordered if r.error is not None]
    if failures:
        raise JobError(
            f"{len(failures)}/{len(ordered)} jobs failed:\n" + "\n".join(failures)
        )
    return RunReport(
        results=ordered,
        workers=workers,
        executed=executed,
        cache_hits=sum(1 for r in ordered if r.cached),
        wall_seconds=time.perf_counter() - start,
    )
