"""Serial/parallel equivalence: the tentpole determinism proof.

The three pinned golden scenarios run as parallel-runner jobs at
``workers=1`` and ``workers=4``; both must reproduce the recorded golden
digests bit-for-bit.  This catches any hermeticity leak a ``spawn`` worker
could introduce (import order, ID allocator state, environment) — a digest
is a pure function of ``(seed, model)`` or it is wrong.  The same
worker-count and cache-hit equality for every CLI matrix verb, ``validate``
included, is checked in ``tests/test_families.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.parallel import JobSpec, run_jobs

# the recorded digests live next door in test_golden_schedules.py; make the
# sibling importable regardless of pytest's import mode
sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_golden_schedules import GOLDEN  # noqa: E402


def golden_specs() -> list[JobSpec]:
    return [
        JobSpec(
            name=f"golden.{name}",
            target="repro.testing:golden_scenario_job",
            kwargs={"name": name},
        )
        for name in GOLDEN
    ]


def test_golden_scenarios_identical_across_worker_counts():
    serial = run_jobs(golden_specs(), workers=1)
    parallel = run_jobs(golden_specs(), workers=4)
    assert serial.digests() == parallel.digests()
    for result in (*serial.results, *parallel.results):
        scenario = result.value["scenario"]
        assert result.value["digest"] == GOLDEN[scenario], (
            f"{scenario} drifted in a {'spawn' if result in parallel.results else 'serial'} run"
        )
        assert result.value["records"] > 0
