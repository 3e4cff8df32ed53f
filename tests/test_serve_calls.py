"""A deterministic budget for the metrics calls of one served request.

With fleet metrics off, a served request reaches ``repro/obs`` only
through three histogram observes: the SLO tracker's latency and
queue-wait histograms, which stay on its private enabled registry because
the scorecard needs their quantiles, and the in-situ client's round-trip
histogram on the disabled fleet registry. Every counter and gauge the
service exports is a view over the tracker's own tallies, read at export,
so it costs a request nothing here.

The workload is the ``serve`` benchmark's cell at toy size: the
``traffic-smoke`` fleet without faults, open-loop Poisson grep requests at
2,000 per second, at two request counts. The profile covers only the
frontend's run. Each run must stay within a constant (the scorecard's
quantiles at the end of the run) plus a budget per request:

- a tracker observe with its ``cls`` label is 5 calls (``observe``,
  ``_label_key``, two steps of its generator, the registry clock);
- the client's observe on the disabled registry is 1 call;

so 2 x 5 + 1 = 11 per request. Measured: 276 and 716 calls at ``SIZES``,
exactly 56 + 11 per request.
"""

from __future__ import annotations

import pytest

from tests.cold_calls import cold_calls

CONSTANT, PER_REQUEST = 56, 2 * 5 + 1
#: Requests served.
SIZES = (20, 60)

SCENARIO = """
import sys
from dataclasses import replace
from repro.config import build_corpus, build_fleet, preset
from repro.config.schema import FaultsConfig
from repro.service.frontend import ServiceFrontend

base = preset("traffic-smoke")
config = replace(base, faults=FaultsConfig(),
                 traffic=replace(base.traffic, requests=int(sys.argv[1]), rate=2000.0))
fleet = build_fleet(config)
sim = fleet.sim
books = build_corpus(config)
sim.run(sim.process(fleet.stage_corpus(books, replicas=config.fleet.replicas)))
frontend = ServiceFrontend(fleet, config.service, config.traffic, books)

def workload():
    return sim.run(sim.process(frontend.run()))

def facts(report):
    return {"requests": report.requests, "completed": report.completed}
"""


@pytest.mark.parametrize("requests", SIZES)
def test_served_requests_cost_a_constant_plus_a_budget_per_request(requests):
    run = cold_calls(SCENARIO, requests)
    assert run["facts"] == {"requests": requests, "completed": requests}, run["facts"]
    calls = run["packages"].get("obs", 0)
    budget = CONSTANT + PER_REQUEST * requests
    assert 0 < calls <= budget, (
        f"{requests} served requests made {calls} calls into repro/obs; the "
        f"budget is {CONSTANT} + {PER_REQUEST} per request = {budget}"
    )
