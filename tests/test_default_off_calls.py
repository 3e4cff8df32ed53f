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

import pytest

from tests.cold_calls import cold_calls

#: package -> (calls made while building the node, calls per minion),
#: measured on this workload: obs 76 + 1 (``Histogram.observe``), faults
#: 13 + 3 (``allow``, ``response_retryable``, ``record_success``).
BUDGETS = {"obs": (76, 1), "faults": (13, 3)}

SCENARIO = """
import sys
from benchmarks.test_fault_overhead import run_node_workload

def workload():
    run_node_workload(armed=True, files=int(sys.argv[1]))
"""


@pytest.mark.parametrize("minions", [4, 8])
def test_default_off_paths_cost_a_constant_plus_a_budget_per_minion(minions):
    calls = cold_calls(SCENARIO, minions)["packages"]
    for package, (construction, per_minion) in BUDGETS.items():
        budget = construction + per_minion * minions
        assert 0 < calls.get(package, 0) <= budget, (
            f"{minions} minions made {calls[package]} calls into repro/{package}; "
            f"the default-off budget is {construction} + {per_minion} per minion "
            f"= {budget}"
        )
