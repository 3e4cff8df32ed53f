"""The 100k-request deterministic soak, marked slow.

One ``traffic-soak`` cell pushes 100,000 seeded Poisson arrivals through
the serving frontend on a replicated 4x4 fleet, long enough to surface
slow state leaks (queue residue, ID drift, horizon creep) that the short
pinned drills never see.  The test asserts:

- request conservation: ``admitted + shed == requests == 100_000`` and
  ``completed + lost == admitted`` with nothing lost, in aggregate and
  summed over the priority classes;
- the scorecard digest matches the pinned value (the same line
  ``repro traffic --preset traffic-soak --mixes poisson`` prints);
- a ``--workers 4`` cached replay through the parallel runner returns
  byte-identical payloads with ``executed == 0``;
- the embedded OSes keep no exited process: probes over the run and a
  check after it (``tests/test_process_retention.py``), on the same cell.

Excluded from the default run by the ``slow`` marker (``addopts`` carries
``-m 'not slow'``); CI runs it as a separate non-blocking job::

    PYTHONPATH=src python -m pytest -q -m slow tests/test_traffic_soak.py
"""

from __future__ import annotations

import argparse

import pytest

from repro.config.codec import to_dict
from repro.config.presets import preset
from repro.families import FAMILIES
from repro.parallel import ResultCache, payload_digest, run_jobs
from tests.test_process_retention import serve_and_check

pytestmark = pytest.mark.slow

REQUESTS = 100_000
SOAK_DIGEST = "989bab36edb0451d6c2fe9504ab4c0971cfeea1dd1ba97cdde6927e79543b2a3"


def test_soak_conserves_requests_and_replays_from_cache(tmp_path) -> None:
    specs = FAMILIES["traffic"].cells(
        argparse.Namespace(mixes=["poisson"]), to_dict(preset("traffic-soak"))
    )
    cache = ResultCache(tmp_path / "cache")

    report = run_jobs(specs, workers=1, cache=cache)
    values = report.values()
    (value,) = values

    assert value["requests"] == REQUESTS
    assert value["admitted"] + sum(value["shed"].values()) == value["requests"]
    assert value["completed"] + value["lost"] == value["admitted"]
    assert value["lost"] == 0
    classes = value["per_class"].values()
    assert sum(cls["requests"] for cls in classes) == value["requests"]
    assert sum(cls["completed"] for cls in classes) == value["completed"]
    # The soak actually serves: a nontrivial slice completes.
    assert value["completed"] > REQUESTS // 10
    assert payload_digest(values) == SOAK_DIGEST, (
        "the traffic-soak scorecard drifted; if intentional, re-pin "
        "SOAK_DIGEST from `repro traffic --preset traffic-soak --mixes poisson`"
    )

    replay = run_jobs(specs, workers=4, cache=cache)
    assert replay.executed == 0, "cached soak replay recomputed cells"
    assert replay.values() == values, "cached replay diverged byte-for-byte"


def test_soak_keeps_no_exited_process() -> None:
    payload = serve_and_check("traffic-soak", probes=10)
    assert payload_digest([payload]) == SOAK_DIGEST
