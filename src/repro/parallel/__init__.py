"""Parallel experiment runner: shard the evaluation matrix across processes.

The paper's evaluation is a matrix of independent seeded scenarios; this
package runs them N-wide with a bit-identical merge:

- :mod:`repro.parallel.jobs` — named, seeded, self-contained work items;
- :mod:`repro.parallel.cache` — content-addressed result cache (code +
  spec digest keyed; any source change invalidates everything);
- :mod:`repro.parallel.runner` — the ``spawn`` process pool with
  canonical-order merge and :mod:`repro.obs` counters.

The experiment families that enumerate these jobs live in
:mod:`repro.families`.  Quick use::

    from repro.parallel import JobSpec, ResultCache, run_jobs
    specs = [JobSpec(f"fig1.n{n}", "repro.analysis.figures:fig1_cell",
                     {"ssd_count": n}) for n in (1, 64)]
    report = run_jobs(specs, workers=4, cache=ResultCache())
    rows = report.values()
"""

from repro.parallel.cache import ResultCache, code_digest, default_cache_dir
from repro.parallel.jobs import (
    JobResult,
    JobSpec,
    canonical_json,
    execute_job,
    payload_digest,
)
from repro.parallel.runner import JobError, RunReport, run_jobs

__all__ = [
    "JobError",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "RunReport",
    "canonical_json",
    "code_digest",
    "default_cache_dir",
    "execute_job",
    "payload_digest",
    "run_jobs",
]
