"""A deterministic call budget for one page read.

An in-situ scan streams its input page by page: file system, FTL, flash,
ECC and the event kernel steps between them.  Host time on that path is
noisy to measure; the Python calls it makes are not.  A cold run in a fresh
process makes exactly the same calls every time, so the calls into
``repro/`` per page read are a number a test can pin.

The workload is one functional node (the ``smoke`` preset: one CompStor)
that scans one file with ``grep`` for a line it holds once.  It runs under cProfile at two file
sizes; the profile covers only the scan, not staging.  Each run must stay
within a constant (the minion's command, NVMe, PCIe and agent path) plus a
budget per page read.  Both are pinned at the values measured on this
workload, so one more call per page read exceeds the budget at both sizes.
"""

from __future__ import annotations

import pytest

from tests.cold_calls import cold_calls

#: Calls into ``repro/`` that do not scale with the file, and calls per page
#: read, measured on this workload: 997 and 2,574 calls at ``SIZES`` (the
#: 16 extra pages cost 98.6 calls each, as lines straddle pages unevenly).
CONSTANT, PER_PAGE = 205, 99
#: File sizes in pages.
SIZES = (8, 24)

SCENARIO = """
import sys
from repro.config import build_node, preset
from repro.proto import Command

pages = int(sys.argv[1])
node = build_node(preset("smoke"))
sim, ssd = node.sim, node.compstors[0]
page_size = ssd.fs.page_size
# distinct lines, so no page's scan is a memo hit of another's
text = b"".join(b"line %08d of the page-read budget\\n" % i for i in range(pages * page_size))
data = text[: pages * page_size]

def stage():
    yield from ssd.fs.write_file("scan.txt", data)
    yield from ssd.fs.device.flush()

sim.run(sim.process(stage()))
reads = ssd.ftl.host_reads

def scan():
    return (yield from node.client.send_minion(ssd.name, Command(command_line="grep 00000007 scan.txt")))

def workload():
    return sim.run(sim.process(scan()))

def facts(response):
    return {"page_reads": ssd.ftl.host_reads - reads,
            "status": response.response.status.name}
"""


@pytest.mark.parametrize("pages", SIZES)
def test_page_reads_cost_a_constant_plus_a_budget_per_page(pages):
    run = cold_calls(SCENARIO, pages)
    assert run["facts"]["page_reads"] == pages, run["facts"]
    budget = CONSTANT + PER_PAGE * pages
    assert 0 < run["repro"] <= budget, (
        f"a {pages}-page scan made {run['repro']} calls into repro/; the budget "
        f"is {CONSTANT} + {PER_PAGE} per page read = {budget}"
    )
