"""Unit tests for the parallel experiment runner.

The pool-backed paths (``workers > 1``) really spawn worker processes, so
they are kept to small, cheap selftest targets; the heavyweight proof that
real experiments are serial/parallel bit-identical lives in
``tests/test_parallel_equivalence.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel import (
    JobError,
    JobSpec,
    ResultCache,
    canonical_json,
    code_digest,
    execute_job,
    payload_digest,
    run_jobs,
)


def ping_spec(value, name="ping"):
    return JobSpec(name=name, target="repro.parallel.selftest:ping",
                   kwargs={"value": value})


def stream_spec(seed, length=6, name=None):
    return JobSpec(
        name=name or f"stream{seed}",
        target="repro.parallel.selftest:digest_stream",
        kwargs={"seed": seed, "length": length},
        seed=seed,
    )


# -- specs and digests --------------------------------------------------------

def test_spec_digest_covers_every_field():
    base = JobSpec(name="a", target="m:f", kwargs={"x": 1}, seed=7)
    assert base.digest() == JobSpec("a", "m:f", {"x": 1}, 7).digest()
    for other in (
        JobSpec("b", "m:f", {"x": 1}, 7),
        JobSpec("a", "m:g", {"x": 1}, 7),
        JobSpec("a", "m:f", {"x": 2}, 7),
        JobSpec("a", "m:f", {"x": 1}, 8),
    ):
        assert other.digest() != base.digest()


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_execute_job_normalises_tuples_to_lists():
    spec = JobSpec(name="echo", target="repro.parallel.selftest:echo",
                   kwargs={"value": (1, 2, "three")})
    result = execute_job(spec)
    assert result.error is None
    assert result.value == {"pong": [1, 2, "three"]}
    assert result.digest == payload_digest(result.value)


def test_execute_job_clears_compress_blob_cache():
    """Regression: the module-level payload memo in ``repro.apps.compress``
    survived from one pool-worker job to the next, so a long matrix run
    grew worker memory without bound and let warm-cache timing leak across
    supposedly hermetic cells.  The grep/gawk scan memo must go the same
    way, and so must a codec-lane task still in flight and the lane's
    counters."""
    from concurrent.futures import Future

    from repro.apps import compress, search

    in_flight = Future()
    compress._BLOB_CACHE.put(("gzip", b"sentinel"), b"stale")
    compress._BLOB_CACHE.put(("gzip", b"in flight"), in_flight)
    compress.LANE_COUNTS["tasks"] += 1
    search._SCAN_MEMO.put(("grep", b"x", False, b"", b"sentinel"), (1, 1, 0, b""))
    result = execute_job(ping_spec(1))
    assert result.error is None
    assert compress._BLOB_CACHE == {}
    assert compress.LANE_COUNTS == {}
    assert search._SCAN_MEMO == {}
    assert not in_flight.done()  # dropped, not waited for


def test_execute_job_captures_traceback_instead_of_raising():
    spec = JobSpec(name="kaboom", target="repro.parallel.selftest:boom",
                   kwargs={"message": "planned failure"})
    result = execute_job(spec)
    assert result.value is None
    assert result.error is not None
    assert "planned failure" in result.error
    assert "kaboom" in result.error


# -- the runner ---------------------------------------------------------------

def test_run_jobs_returns_canonical_order_serial_and_parallel():
    specs = [stream_spec(seed) for seed in (5, 3, 9, 1)]
    serial = run_jobs(specs, workers=1)
    parallel = run_jobs(specs, workers=4)
    assert [r.name for r in serial.results] == [s.name for s in specs]
    assert [(r.name, r.digest) for r in serial.results] == [
        (r.name, r.digest) for r in parallel.results
    ]
    assert serial.values() == parallel.values()
    assert serial.executed == parallel.executed == 4


def test_run_jobs_rejects_duplicate_names_and_bad_workers():
    with pytest.raises(ValueError, match="unique"):
        run_jobs([ping_spec(1), ping_spec(2)])
    with pytest.raises(ValueError, match="workers"):
        run_jobs([ping_spec(1)], workers=0)


def test_run_jobs_raises_job_error_after_all_jobs_report():
    specs = [
        ping_spec(1, name="ok1"),
        JobSpec(name="bad", target="repro.parallel.selftest:boom",
                kwargs={"message": "boom-1"}),
        ping_spec(2, name="ok2"),
    ]
    with pytest.raises(JobError, match="1/3 jobs failed"):
        run_jobs(specs, workers=1)
    with pytest.raises(JobError, match="boom-1"):
        run_jobs(specs, workers=2)


def test_run_jobs_reports_executed_jobs_and_cache_hits(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = [stream_spec(seed) for seed in (1, 2)]
    report = run_jobs(specs, workers=1, cache=cache)
    assert (report.executed, report.cache_hits, report.workers) == (2, 0, 1)
    assert [r.cached for r in report.results] == [False, False]
    assert all(r.wall_seconds > 0 for r in report.results)
    assert "executed=2, cache hits=0, workers=1" in report.summary()
    # rerun: everything comes from the cache
    rerun = run_jobs(specs, workers=1, cache=cache)
    assert (rerun.executed, rerun.cache_hits) == (0, 2)
    assert [r.cached for r in rerun.results] == [True, True]
    assert rerun.values() == report.values()


# -- the cache ----------------------------------------------------------------

def test_cache_roundtrip_preserves_value_and_digest(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = stream_spec(42)
    fresh = execute_job(spec)
    cache.store(spec, fresh)
    hit = cache.load(spec)
    assert hit is not None and hit.cached
    assert hit.value == fresh.value
    assert hit.digest == fresh.digest


def test_cache_misses_on_different_spec_and_corruption(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = stream_spec(42)
    cache.store(spec, execute_job(spec))
    assert cache.load(stream_spec(43)) is None  # different spec
    # corruption: truncate the entry on disk
    cache.path(spec).write_text("{not json")
    assert cache.load(spec) is None
    # schema mismatch
    cache.path(spec).write_text(json.dumps({"schema": "other", "name": spec.name}))
    assert cache.load(spec) is None


def test_cache_refuses_failed_jobs(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = JobSpec(name="bad", target="repro.parallel.selftest:boom",
                   kwargs={"message": "no"})
    with pytest.raises(ValueError, match="failed job"):
        cache.store(spec, execute_job(spec))


def test_code_digest_is_stable_within_a_process():
    assert code_digest() == code_digest()
    assert len(code_digest()) == 64
