"""Tests for the storage fleet (nodes x devices, concurrent minions)."""

import pytest

from repro.cluster import StorageFleet
from repro.config import FlashConfig, FleetConfig, ScenarioConfig
from repro.config import build_fleet as build_fleet_from
from repro.proto import Command
from repro.sim import Simulator
from repro.workloads import BookCorpus, CorpusSpec


def build_fleet(nodes=2, devices=2):
    return build_fleet_from(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=nodes, devices_per_node=devices),
    ))


def corpus(files, mean=32 * 1024):
    return BookCorpus(CorpusSpec(files=files, mean_file_bytes=mean)).generate()


def test_fleet_topology():
    fleet = build_fleet(nodes=3, devices=2)
    info = fleet.describe()
    assert info["nodes"] == 3
    assert info["devices"] == 6
    assert info["capacity_bytes"] > 0


def test_fleet_requires_nodes():
    with pytest.raises(ValueError):
        FleetConfig(nodes=0)
    with pytest.raises(ValueError):
        StorageFleet(Simulator(), [])


def test_stage_and_run_job_everywhere():
    fleet = build_fleet(nodes=2, devices=2)
    books = corpus(8)
    fleet.sim.run(fleet.sim.process(fleet.stage_corpus(books)))

    def job():
        return (
            yield from fleet.run_job(
                books,
                lambda book: Command(
                    command_line=f"grep {CorpusSpec().needle} {book.name}"
                ),
            )
        )

    responses, wall = fleet.sim.run(fleet.sim.process(job()))
    assert len(responses) == 8
    assert all(r is not None and r.status.value in ("ok", "app-error") for r in responses)
    assert wall > 0
    assert fleet.total_minions_served() == 8
    # every needle the corpus injected is found somewhere in the fleet
    found = sum(int(r.stdout) for r in responses if r.stdout)
    expected = sum(b.needle_count for b in books)
    assert found >= expected


def test_placement_covers_all_books_once():
    fleet = build_fleet(nodes=2, devices=2)
    books = corpus(10)
    placement = fleet.placement(books)
    placed = [b.name for part in placement.values() for b in part]
    assert sorted(placed) == sorted(b.name for b in books)
    assert len(placement) <= fleet.total_devices


def test_fleet_telemetry_covers_every_device():
    fleet = build_fleet(nodes=2, devices=3)

    def flow():
        return (yield from fleet.telemetry())

    snaps = fleet.sim.run(fleet.sim.process(flow()))
    assert len(snaps) == 6
    assert all(snap.active_minions == 0 for snap in snaps.values())


def test_fleet_wall_time_shrinks_with_more_nodes():
    """Fixed corpus, more nodes -> shorter job wall time (the distributed-
    processing scalability the title promises)."""
    # many small books: the critical path is waves-of-work, not one big file
    books = BookCorpus(
        CorpusSpec(files=32, mean_file_bytes=24 * 1024, size_spread=0.1)
    ).generate()

    def run_with(nodes):
        fleet = build_fleet(nodes=nodes, devices=2)
        fleet.sim.run(fleet.sim.process(fleet.stage_corpus(books)))

        def job():
            return (
                yield from fleet.run_job(
                    books, lambda b: Command(command_line=f"gzip {b.name}")
                )
            )

        responses, wall = fleet.sim.run(fleet.sim.process(job()))
        assert all(r.ok for r in responses)
        return wall

    one = run_with(1)
    four = run_with(4)
    assert four < 0.45 * one
