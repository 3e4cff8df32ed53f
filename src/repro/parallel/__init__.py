"""Parallel experiment runner: shard the evaluation matrix across processes.

The paper's evaluation is a matrix of independent seeded scenarios; this
package runs them N-wide with a bit-identical merge:

- :mod:`repro.parallel.jobs` — named, seeded, self-contained work items;
- :mod:`repro.parallel.cache` — content-addressed result cache (code +
  spec digest keyed; any source change invalidates everything);
- :mod:`repro.parallel.runner` — the ``spawn`` process pool with
  canonical-order merge and :mod:`repro.obs` counters;
- :mod:`repro.parallel.matrix` — the claim/figure/ablation/bench matrix
  enumerated as job lists.

Quick use::

    from repro.parallel import run_jobs, validation_jobs, ResultCache
    report = run_jobs(validation_jobs(quick=True), workers=4,
                      cache=ResultCache())
    claims = report.values()
"""

from repro.parallel.cache import ResultCache, code_digest, default_cache_dir
from repro.parallel.jobs import (
    JobResult,
    JobSpec,
    canonical_json,
    execute_job,
    payload_digest,
)
from repro.parallel.matrix import (
    ablation_jobs,
    backends_jobs,
    bench_jobs,
    drill_jobs,
    fig1_jobs,
    fig6_jobs,
    fig7_jobs,
    fig8_jobs,
    full_matrix,
    objstore_jobs,
    objstore_sweep_jobs,
    traffic_jobs,
    validation_jobs,
)
from repro.parallel.runner import JobError, RunReport, run_jobs

__all__ = [
    "JobError",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "RunReport",
    "ablation_jobs",
    "backends_jobs",
    "bench_jobs",
    "canonical_json",
    "code_digest",
    "default_cache_dir",
    "drill_jobs",
    "execute_job",
    "fig1_jobs",
    "fig6_jobs",
    "fig7_jobs",
    "fig8_jobs",
    "full_matrix",
    "objstore_jobs",
    "objstore_sweep_jobs",
    "payload_digest",
    "run_jobs",
    "traffic_jobs",
    "validation_jobs",
]
