"""Work items for the parallel experiment runner.

A :class:`JobSpec` names one self-contained, seeded experiment — a claim
from :mod:`repro.analysis.validation` or one cell of an experiment family
(:mod:`repro.families`).  The spec carries everything a fresh ``spawn``
worker needs to reproduce it: an importable *target*
(``"module:function"``) plus JSON-encodable keyword arguments.  :func:`execute_job` is the worker entry point; it restores
fresh-process ID-allocation state (:func:`repro.testing.reset_global_ids`)
before running, so a job's observable output is a pure function of
``(target, kwargs)`` no matter which process runs it or what ran earlier —
the same hermeticity contract the golden-schedule digests rely on.

Job values are canonicalised through one JSON round-trip (sorted keys,
no whitespace, NaN rejected) and hashed; the digest is how the serial and
parallel paths prove they produced bit-identical results.

This module reads the host clock (``time.perf_counter``) deliberately: the
per-job wall time it reports (``JobResult.wall_seconds``) measures the
host, not the model.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "JobResult",
    "JobSpec",
    "canonical_json",
    "execute_job",
    "payload_digest",
    "repo_root",
    "resolve_target",
]


def repo_root() -> Path:
    """The checkout root (parent of ``src``)."""
    import repro

    return Path(repro.__file__).resolve().parents[2]


def canonical_json(value: Any) -> str:
    """One canonical serialisation per value: sorted keys, no whitespace.

    ``allow_nan=False`` makes a NaN/Inf result a loud failure instead of a
    digest that silently never matches.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def payload_digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One named, seeded, self-contained work item.

    ``kwargs`` must be JSON-encodable (they are part of the cache key and
    are shipped to spawn workers).  ``seed`` is advisory metadata — most
    targets take their seed through ``kwargs`` — but it participates in
    the spec digest so two otherwise-identical items stay distinct.
    """

    name: str
    target: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def digest(self) -> str:
        """Content digest of the spec itself (cache-key component)."""
        return payload_digest(
            {
                "name": self.name,
                "target": self.target,
                "kwargs": self.kwargs,
                "seed": self.seed,
            }
        )


@dataclass
class JobResult:
    """What a worker returns: a canonicalised value plus its digest.

    ``error`` carries a formatted traceback instead of raising across the
    process boundary; the runner re-raises after every job has reported,
    so one bad cell cannot strand its siblings mid-flight.
    """

    name: str
    value: Any
    digest: str
    wall_seconds: float
    cached: bool = False
    error: str | None = None


def resolve_target(target: str) -> Callable[..., Any]:
    """Import the callable a ``"package.module:function"`` target names."""
    module_name, func_name = target.rsplit(":", 1)
    return getattr(importlib.import_module(module_name), func_name)


def execute_job(spec: JobSpec) -> JobResult:
    """Run one job hermetically; never raises (errors travel in the result)."""
    from repro.testing import reset_global_ids

    reset_global_ids()
    start = time.perf_counter()
    try:
        function = resolve_target(spec.target)
        raw = function(**spec.kwargs)
        encoded = canonical_json(raw)
    except Exception:
        return JobResult(
            name=spec.name,
            value=None,
            digest="",
            wall_seconds=time.perf_counter() - start,
            error=f"job {spec.name!r} ({spec.target}):\n{traceback.format_exc()}",
        )
    # the JSON round-trip normalises containers (tuples become lists), so
    # in-process and cross-process runs return structurally identical values
    return JobResult(
        name=spec.name,
        value=json.loads(encoded),
        digest=hashlib.sha256(encoded.encode()).hexdigest(),
        wall_seconds=time.perf_counter() - start,
    )
