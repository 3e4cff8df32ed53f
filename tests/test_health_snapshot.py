"""Every health reader agrees with the FTL's one snapshot, on both backends.

``TranslationCore.stats()`` is the FTL snapshot. SMART builds its page from
it, the ``ftl.free_blocks`` gauge reads the same free space, and
``StorageFleet.health()`` sums the SMART pages, so after GC churn and a
retired unit all of them must report the same numbers.
"""

import pytest

from repro.config import build_fleet, preset
from tests.test_ftl import drive
from tests.test_obs_metrics import sample


@pytest.mark.parametrize("backend", ["page", "zoned"])
def test_smart_gauge_and_fleet_health_read_the_ftl_snapshot(backend):
    fleet = build_fleet(preset("smoke", ("obs.metrics=true", f"device.backend={backend}")))
    ssd = fleet.nodes[0].compstors[0]
    ftl = ssd.ftl

    def churn_then_retire():
        # 2048 page writes over 512 logical pages: the collector must run
        for rnd in range(4):
            for lpn in range(512):
                yield from ftl.write(lpn, bytes([rnd]))
        yield from ftl.flush()
        # the zoned backend refuses a collection while another runs, so let
        # its background collector settle first
        while backend == "zoned" and not ftl.gc.idle:
            yield fleet.sim.timeout(ftl.flash.timing.t_erase)
        # doom every block of the next victim unit, so its erase fails
        # and the backend takes it out of service
        victim = ftl._choose_victim()
        for block in ftl._unit_block_range(victim):
            ftl.flash.mark_block_failed(block)
        yield from ftl.gc._collect(victim)
        return (yield from fleet.health())

    health = drive(fleet.sim, churn_then_retire())
    stats = ftl.stats()
    assert stats["gc_collections"] > 0
    assert stats["bad_blocks"] == ftl._unit_blocks  # one retired unit

    smart = ssd.controller.smart_log()
    assert smart["available_spare"] == stats["free_blocks"]
    assert smart["bad_blocks"] == stats["bad_blocks"]
    assert smart["gc_collections"] == stats["gc_collections"]
    assert smart["scrub_refreshes"] == stats.get("scrub_refreshes", 0)

    gauge = sample(fleet.metrics["ftl.free_blocks"], node="node0", device=f"{ssd.name}.ftl")
    assert gauge == stats["free_blocks"]

    smarts = [s.controller.smart_log() for node in fleet.nodes for s in node.compstors]
    assert health.grown_bad_blocks == sum(s["bad_blocks"] for s in smarts) > 0
