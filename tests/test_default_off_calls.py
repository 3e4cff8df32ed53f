"""The default-off contract as deterministic call counts.

With metrics and tracing off, observability must cost a run only its
construction plus one histogram test per minion; idle fault machinery
(retry policy, circuit breakers, an armed empty plan) only its
construction plus a few calls per minion. The wall-clock guards in
``benchmarks/test_obs_overhead.py`` and ``benchmarks/test_fault_overhead.py``
measure the same contract, but host noise swamps a difference that small.
Call counts do not: a cold run in a fresh process makes exactly the same
calls every time, whatever the hash seed.

The workload is the fault guard's armed node run (one node, four devices,
one grep minion per book, no registry, no tracer). It runs under cProfile
at two minion counts, so a hook that fires per page or per event, rather
than per minion, exceeds the budget at both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: package -> (calls made while building the node, calls per minion),
#: measured on this workload: obs 93 + 1 (``Histogram.observe``), faults
#: 13 + 3 (``allow``, ``response_retryable``, ``record_success``).
BUDGETS = {"obs": (93, 1), "faults": (13, 3)}

PROFILE = """
import cProfile, json, pstats, sys
from benchmarks.test_fault_overhead import run_node_workload

profile = cProfile.Profile()
profile.runcall(run_node_workload, armed=True, files=int(sys.argv[1]))
calls = dict.fromkeys(sys.argv[2:], 0)
for (filename, _, _), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
    package = filename.replace("\\\\", "/").rpartition("/repro/")[2].split("/")[0]
    if package in calls:
        calls[package] += ncalls
print(json.dumps(calls))
"""


def cold_calls(minions: int) -> dict[str, int]:
    """Calls into each budgeted package over one run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    out = subprocess.run(
        [sys.executable, "-c", PROFILE, str(minions), *BUDGETS],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("minions", [4, 8])
def test_default_off_paths_cost_a_constant_plus_a_budget_per_minion(minions):
    calls = cold_calls(minions)
    for package, (construction, per_minion) in BUDGETS.items():
        budget = construction + per_minion * minions
        assert 0 < calls[package] <= budget, (
            f"{minions} minions made {calls[package]} calls into repro/{package}; "
            f"the default-off budget is {construction} + {per_minion} per minion "
            f"= {budget}"
        )
