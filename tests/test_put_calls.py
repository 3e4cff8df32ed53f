"""A deterministic call budget for one object PUT.

A PUT uploads the payload to a staging file, chunks and hashes it in-situ
(the ``chunksum`` minion), writes each novel chunk to its replicas and
flushes them: file system, FTL append and allocation, flash programs and
the event kernel steps between them.  Host time on that path is noisy to
measure; the Python calls it makes are not.  A cold run in a fresh process
makes exactly the same calls every time, so they are a number a test can
pin.

The workload is one cold ``DedupObjectStore.put`` on the ``objstore-smoke``
fleet without faults, on each translation backend, at two payload sizes;
the profile covers only the PUT.  The count is every call into a function
under ``repro/`` plus every call that code makes directly (a numpy method
called per page counts; numpy's own internals do not).  Each run must stay
within a constant (the minion's command, NVMe, PCIe and agent path) plus a
budget per page programmed.  Both are pinned per backend at the values
measured on this workload, so one more call per page exceeds the budget at
both sizes.
"""

from __future__ import annotations

import pytest

from tests.cold_calls import cold_calls

#: Per backend, calls that do not scale with the payload and calls per page
#: programmed, measured on this workload: 17,111 and 33,250 calls on the
#: page backend, 8,147 and 19,879 on the zoned one, at ``SIZES``.
BUDGETS = {"page": (8503, 269), "zoned": (1875, 196)}
#: Payload sizes in KiB (16 KiB pages: 32 and 92 pages programmed).
SIZES = (32, 96)

SCENARIO = """
import random, sys
from dataclasses import replace
from repro.config import preset
from repro.config.factory import build_fleet
from repro.config.schema import DeviceBackendConfig, FaultsConfig
from repro.objstore.dedup import DedupObjectStore

backend, kib = sys.argv[1], int(sys.argv[2])
config = replace(preset("objstore-smoke"), faults=FaultsConfig(),
                 device=DeviceBackendConfig(backend=backend))
fleet = build_fleet(config)
sim = fleet.sim
store = DedupObjectStore(fleet, params=config.objstore.params(),
                         replicas=config.objstore.replicas)
payload = random.Random(7).randbytes(kib * 1024)
devices = [ssd for node in fleet.nodes for ssd in node.compstors]
programs = sum(ssd.flash.stats.programs for ssd in devices)

def workload():
    return sim.run(sim.process(store.put("object", payload)))

def facts(recipe):
    return {"programs": sum(ssd.flash.stats.programs for ssd in devices) - programs,
            "chunks": len(recipe)}
"""


@pytest.mark.parametrize("backend", sorted(BUDGETS))
@pytest.mark.parametrize("kib", SIZES)
def test_put_costs_a_constant_plus_a_budget_per_page(backend, kib):
    run = cold_calls(SCENARIO, backend, kib)
    pages = run["facts"]["programs"]
    assert pages >= kib // 16 and run["facts"]["chunks"] > 1, run["facts"]
    constant, per_page = BUDGETS[backend]
    budget = constant + per_page * pages
    assert 0 < run["repro_edges"] <= budget, (
        f"a {kib} KiB PUT on the {backend} backend made {run['repro_edges']} calls into "
        f"or out of repro/; the budget is {constant} + {per_page} per page "
        f"programmed x {pages} = {budget}"
    )
