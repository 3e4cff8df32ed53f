"""Golden-schedule regression tests.

Three pinned scenarios run with tracing on; the full trace schedule (every
record's time, component, kind and detail payload) plus the run's terminal
state is canonicalised and hashed.  The digests below were recorded before
the simulator hot-path optimization work and must never drift: any change
to event ordering, timing, or payloads — however small — flips the hash.

The scenario builders and the canonical hashing now live in
:mod:`repro.testing` so the parallel experiment runner can execute the
same scenarios in ``spawn`` workers (serial/parallel digest equality is
asserted in ``tests/test_parallel_equivalence.py``); this file keeps the
recorded digests and the drift tests.  It also pins the simulated event
count of a gzip-then-grep job on each device backend.

This is the contract the perf PRs rely on: "the optimization kept schedules
bit-identical" is proven here, not asserted in prose.  If a PR changes the
*model* on purpose (new latency, new trace record), re-record with::

    PYTHONPATH=src python tests/test_golden_schedules.py

(which runs ``print_digests``) and explain the drift in the PR body.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import build_corpus, build_node
from repro.config.schema import (
    DeviceBackendConfig,
    FlashConfig,
    FleetConfig,
    ScenarioConfig,
)
from repro.proto.entities import Command
from repro.testing import (
    GOLDEN_SCENARIOS as SCENARIOS,
    canonical_value as _canon,  # noqa: F401  (back-compat re-export)
    schedule_digest,
    scenario_chaos_drill,
    scenario_fleet_grep,
    scenario_single_gzip,
)
from repro.workloads import CorpusSpec

#: Recorded from the pre-optimization simulator (PR 3 seed state), then
#: re-recorded once when the scenarios became hermetic: ID allocators
#: (minion/query/PID/CID) are now reset per scenario, so digests no longer
#: depend on suite order.  ``single_gzip`` — which always ran first from a
#: fresh process — kept its original pre-optimization digest bit-for-bit,
#: which is the proof that the hot-path optimization changed no schedule;
#: the other two changed only in the ID values embedded in trace payloads.
#: Any schedule drift fails these tests; see the module docstring for the
#: re-record procedure when drift is intentional.
GOLDEN = {
    "single_gzip": "86e73ad59496b2c5a944f82b4659eaceafc40ece73f1454ebcd2cb381a59a56d",
    "fleet_grep": "1cab9350525639bf3c33f13ad9eb1320687657fe5113e87264aac3906d4bb42b",
    "chaos_drill": "469e43a9945d6b7d0b751527d7556ed0411d694097239c64967bc072f3d5100c",
}


def test_single_gzip_schedule_unchanged():
    tracer, extras = scenario_single_gzip()
    assert len(tracer.records) > 0, "scenario must actually trace"
    assert schedule_digest(tracer, extras) == GOLDEN["single_gzip"]


def test_fleet_grep_schedule_unchanged():
    tracer, extras = scenario_fleet_grep()
    assert len(tracer.records) > 0
    assert schedule_digest(tracer, extras) == GOLDEN["fleet_grep"]


def test_chaos_drill_schedule_unchanged():
    tracer, extras = scenario_chaos_drill()
    assert len(tracer.records) > 0
    assert schedule_digest(tracer, extras) == GOLDEN["chaos_drill"]


@pytest.mark.parametrize(
    ("backend", "devices", "files", "file_bytes", "events"),
    [
        ("page", 1, 4, 32 * 1024, 528),
        ("zoned", 8, 48, 64 * 1024, 8340),
    ],
    ids=["small", "zoned-n8"],
)
def test_gzip_grep_event_count_unchanged(backend, devices, files, file_bytes, events):
    """Simulated events in a gzip pass then a grep pass, staging excluded.

    A cheap whole-schedule pin on both device backends: any change to how
    many events the job path dispatches fails here.
    """
    config = ScenarioConfig(
        seed=1234,
        flash=FlashConfig(capacity_bytes=48 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=devices),
        corpus=CorpusSpec(
            files=files, mean_file_bytes=file_bytes, size_spread=0.2, seed=1234,
        ),
    )
    if backend != "page":
        config = replace(config, device=DeviceBackendConfig(backend=backend))
    books = build_corpus(config)
    node = build_node(config)
    sim = node.sim
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    placement = node.device_books(books)

    def job():
        responses = []
        for verb in ("gzip", "grep xylophone"):
            responses += yield from node.client.gather([
                (device, Command(command_line=f"{verb} {book.name}"))
                for device, part in placement.items()
                for book in part
            ])
        return responses

    before = sim.events_processed
    responses = sim.run(sim.process(job()))
    assert len(responses) == 2 * files
    assert all(r.status.value in ("ok", "app-error") for r in responses)
    assert sim.events_processed - before == events


def print_digests() -> None:  # pragma: no cover - re-record helper
    """Print current digests (run directly to re-record after model changes)."""
    for name, scenario in SCENARIOS.items():
        tracer, extras = scenario()
        print(f'    "{name}": "{schedule_digest(tracer, extras)}",')


if __name__ == "__main__":  # pragma: no cover
    print_digests()
