"""Dedup object store: chunk+hash offload, block sharing, GC crash safety.

Three layers:

* unit tests of :class:`DedupObjectStore` over a small fleet — round trips,
  duplicate suppression, refcount sharing across keys, GC reclamation;
* a Hypothesis property pinning the byte-accounting identity
  ``stored_bytes + deduped_bytes == offered_bytes`` over arbitrary
  put/overwrite/delete sequences;
* the drill cells as oracles — deterministic in-process, matching the
  pinned ``objstore-smoke`` golden, and holding the crash-recovery
  invariant (no referenced block lost, no orphan outliving recovery).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_fleet
from repro.faults.state import DeviceFaultState
from repro.objstore import (
    ChunkParams,
    ChunkSumApp,
    DedupObjectStore,
    ObjectStoreError,
    chunk_digests,
)
from repro.objstore.dedup import BLOCK_PREFIX, TEMP_PREFIX
from repro.objstore.drill import (
    run_gc_drill_cell,
    run_objstore_cell,
    run_objstore_sweep_cell,
)
from repro.parallel import payload_digest
from tests.test_families import golden_digests

PARAMS = ChunkParams(min_size=64, avg_size=256, max_size=1024)


def make_store(replicas=2):
    fleet = build_fleet(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
        fleet=FleetConfig(nodes=2, devices_per_node=2),
    ))
    store = DedupObjectStore(fleet, params=PARAMS, replicas=replicas)
    return fleet, store


def drive(fleet, gen):
    return fleet.sim.run(fleet.sim.process(gen))


def blob(seed: int, size: int = 6 * 1024) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


def block_files(store) -> dict[tuple[int, str], set[str]]:
    return {
        target: {
            name
            for name in store._ssd(*target).fs.listdir()
            if name.startswith(BLOCK_PREFIX)
        }
        for target in store.ring
    }


# -- unit: write/read/delete -------------------------------------------------

def test_put_get_round_trip():
    fleet, store = make_store()
    payload = blob(1)
    recipe = drive(fleet, store.put("cat", payload))
    assert sum(length for _, length in recipe) == len(payload)
    assert drive(fleet, store.get("cat")) == payload
    assert store.stats.puts == 1 and store.stats.gets == 1
    assert store.stats.offered_bytes == len(payload)


def test_recipe_matches_host_side_chunking():
    """The in-situ chunksum minion and the host chunker agree exactly —
    the digests shipped over PCIe are the ones the payload hashes to."""
    fleet, store = make_store()
    payload = blob(2)
    recipe = drive(fleet, store.put("k", payload))
    assert list(recipe) == chunk_digests(payload, PARAMS)
    assert store.stats.host_chunk_fallbacks == 0


def test_put_chunks_host_side_when_the_key_chain_is_down():
    """With every device on the key's chain crashed, no drive can run
    chunksum: the store chunks on the host, and the object still commits."""
    fleet, store = make_store()
    # a key/payload whose chunk chains each keep a live device, so the
    # novel blocks have somewhere to land
    for seed in range(100):
        key, payload = f"k{seed}", blob(100 + seed, size=1024)
        down = set(store._chain(key))
        if all(
            set(store.block_chain(digest)) - down
            for digest, _ in chunk_digests(payload, PARAMS)
        ):
            break
    else:
        pytest.fail("no key/payload keeps a live device on every chunk chain")
    for target in down:
        faults = store._ssd(*target).controller.faults = DeviceFaultState()
        faults.crashed = True
    recipe = drive(fleet, store.put(key, payload))
    assert store.stats.host_chunk_fallbacks == 1
    assert list(recipe) == chunk_digests(payload, PARAMS)
    assert drive(fleet, store.get(key)) == payload
    assert store.check_integrity()["ok"]


def test_duplicate_payload_is_never_rewritten():
    fleet, store = make_store()
    payload = blob(3)
    drive(fleet, store.put("a", payload))
    stored_after_first = store.stats.stored_bytes
    physical_after_first = store.stats.physical_bytes
    drive(fleet, store.put("b", payload))
    # second copy: all chunks known, zero novel bytes, zero block writes
    assert store.stats.stored_bytes == stored_after_first
    assert store.stats.physical_bytes == physical_after_first
    assert store.stats.deduped_bytes == len(payload)
    assert all(entry.refcount == 2 for entry in store.index.values())
    assert drive(fleet, store.get("b")) == payload


def test_blocks_replicated_along_digest_chain():
    fleet, store = make_store(replicas=2)
    drive(fleet, store.put("k", blob(4)))
    for digest, entry in store.index.items():
        assert len(entry.chain) == 2
        for target in entry.chain:
            assert BLOCK_PREFIX + digest in store._ssd(*target).fs.listdir()


def test_shared_chunks_survive_deleting_one_key():
    fleet, store = make_store()
    payload = blob(5)
    drive(fleet, store.put("a", payload))
    drive(fleet, store.put("b", payload))
    drive(fleet, store.delete("a"))
    drive(fleet, store.gc())
    assert drive(fleet, store.get("b")) == payload
    assert store.check_integrity()["ok"]


def test_delete_then_gc_reclaims_every_block():
    fleet, store = make_store()
    drive(fleet, store.put("a", blob(6)))
    drive(fleet, store.put("b", blob(7)))
    drive(fleet, store.delete("a"))
    drive(fleet, store.delete("b"))
    swept = drive(fleet, store.gc())
    assert swept["blocks"] > 0 and swept["bytes"] > 0
    assert store.index == {}
    assert all(not files for files in block_files(store).values())


def test_gc_never_touches_referenced_blocks():
    fleet, store = make_store()
    payload = blob(8)
    drive(fleet, store.put("keep", payload))
    before = block_files(store)
    swept = drive(fleet, store.gc())
    assert swept["blocks"] == 0
    assert block_files(store) == before
    assert drive(fleet, store.get("keep")) == payload


def test_overwrite_replaces_recipe_without_refcount_drift():
    fleet, store = make_store()
    shared = blob(9)
    drive(fleet, store.put("k", shared))
    drive(fleet, store.put("k", shared + blob(10, size=2 * 1024)))
    assert drive(fleet, store.get("k")) == shared + blob(10, size=2 * 1024)
    report = store.check_integrity()
    assert report["ok"], report
    drive(fleet, store.delete("k"))
    drive(fleet, store.gc())
    assert store.index == {}


def test_get_unknown_key_raises():
    fleet, store = make_store()
    with pytest.raises(ObjectStoreError):
        drive(fleet, store.get("ghost"))
    with pytest.raises(ObjectStoreError):
        drive(fleet, store.delete("ghost"))


def test_no_temp_files_survive_commit():
    fleet, store = make_store()
    drive(fleet, store.put("k", blob(11)))
    for target in store.ring:
        names = store._ssd(*target).fs.listdir()
        assert not [n for n in names if n.startswith(TEMP_PREFIX)]


# -- property: accounting identity -------------------------------------------

SEGMENTS = [blob(seed, size=1536) for seed in range(5)]

op_lists = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(["a", "b", "c"]),
            st.lists(st.integers(0, 4), min_size=1, max_size=4),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["a", "b", "c"]), st.just([])),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(op_lists)
def test_accounting_identity_holds_under_any_op_sequence(ops):
    """Every offered byte is either stored (first occurrence) or deduped
    (repeat) — cumulatively, across puts, overwrites, and deletes."""
    fleet, store = make_store()
    for op, key, segments in ops:
        if op == "put":
            drive(fleet, store.put(key, b"".join(SEGMENTS[i] for i in segments)))
        elif key in store.manifests:
            drive(fleet, store.delete(key))
        stats = store.stats
        assert stats.stored_bytes + stats.deduped_bytes == stats.offered_bytes
        assert store.check_integrity()["ok"]


# -- drill cells as oracles ---------------------------------------------------

def test_objstore_cell_deterministic_in_process():
    first = run_objstore_cell()
    second = run_objstore_cell()
    assert first == second
    assert first["ok"], first
    # the preset's second crash window overlaps the first GC pass
    assert first["down_during_gc"], "drill never raced GC against a crash"


def test_gc_drill_holds_the_crash_recovery_invariant():
    cell = run_gc_drill_cell()
    assert cell["ok"], cell
    assert cell["objects_deleted"] > 0
    assert cell["orphans_left"] == 0
    assert cell["integrity"]["lost_blocks"] == []
    assert cell["integrity"]["refcount_drift"] == []
    assert cell["gets"]["mismatch"] == 0 and cell["gets"]["failed"] == 0


def test_drill_pair_matches_pinned_golden():
    values = [run_objstore_cell(), run_gc_drill_cell()]
    assert payload_digest(values) == golden_digests("objstore-smoke")["scorecard"], (
        "the objstore-smoke scorecard drifted; if intentional, re-pin "
        "tests/golden_scorecards.txt"
    )


def test_dedup_sweep_ratio_tracks_the_dial():
    points = [run_objstore_sweep_cell(dedup_ratio=d) for d in (0.0, 0.5, 0.9)]
    ratios = [p["measured_ratio"] for p in points]
    assert ratios[0] == pytest.approx(1.0)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 1.5
    for point in points:
        assert point["offered_bytes"] == (
            point["stored_bytes"] + point["deduped_bytes"]
        )


# -- the in-situ chunksum minion ---------------------------------------------

def test_chunksum_app_is_page_seam_safe():
    """The minion hashes payload spans, not page-sized read chunks: its
    stdout recipe equals host-side chunking even though the device streams
    the file through fixed pages."""
    from tests.test_apps import drive as drive_os
    from tests.test_apps import make_os, put_file

    sim, os_ = make_os()
    os_.install_executable(ChunkSumApp())
    payload = blob(12, size=20 * 1024)
    put_file(sim, os_, "obj.bin", payload)
    status, _ = drive_os(
        sim, os_.run(f"chunksum {PARAMS.min_size} {PARAMS.avg_size} {PARAMS.max_size} obj.bin")
    )
    assert status.code == 0
    got = [
        (line.split()[0], int(line.split()[1]))
        for line in status.stdout.decode().splitlines()
    ]
    assert got == [(d, s) for d, s in chunk_digests(payload, PARAMS)]
    assert status.detail["chunks"] == len(got)


def test_chunksum_app_analytic_mode_marks_detail():
    from tests.test_apps import drive as drive_os
    from tests.test_apps import make_os, put_file

    sim, os_ = make_os(store_data=False)
    os_.install_executable(ChunkSumApp())
    put_file(sim, os_, "ghost.bin", None, size=8 * 1024)
    status, _ = drive_os(sim, os_.run("chunksum 64 256 1024 ghost.bin"))
    assert status.code == 0
    assert status.stdout == b""
    assert status.detail == {"analytic": True, "bytes": 8 * 1024}


def test_chunksum_app_rejects_bad_usage():
    from tests.test_apps import drive as drive_os
    from tests.test_apps import make_os, put_file

    sim, os_ = make_os()
    os_.install_executable(ChunkSumApp())
    put_file(sim, os_, "x.bin", b"data")
    for bad in ("chunksum x.bin", "chunksum 512 256 1024 x.bin", "chunksum a b c x.bin"):
        status, _ = drive_os(sim, os_.run(bad))
        assert status.code == 2
