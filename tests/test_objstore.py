"""Tests for the Kinetic-style object store and in-situ object scanning."""

import pytest

from repro.config import build_node, preset
from repro.objstore import ObjectStore, ObjectStoreError, ObjScanApp
from repro.objstore.store import VersionMismatchError


def make_store():
    node = build_node(preset("smoke"))
    store = ObjectStore(node.compstors[0].fs)
    return node, store


def drive(node, gen):
    return node.sim.run(node.sim.process(gen))


def test_invalid_keys_rejected():
    node, store = make_store()
    for bad in ("photos/cat", "", "x" * 200, "nul\x00"):
        with pytest.raises(ObjectStoreError):
            drive(node, store.put(bad, b"payload"))


def test_put_get_simple_key():
    node, store = make_store()
    meta = drive(node, store.put("cat", b"meow-bytes", tags={"type": "jpg"}))
    assert meta.version == 1
    assert meta.size == 10

    def get():
        return (yield from store.get("cat"))

    data, got_meta = drive(node, get())
    assert data == b"meow-bytes"
    assert got_meta.tags == {"type": "jpg"}


def test_version_increments_on_overwrite():
    node, store = make_store()
    drive(node, store.put("k", b"v1"))
    meta = drive(node, store.put("k", b"v2"))
    assert meta.version == 2

    def get():
        return (yield from store.get("k"))

    data, _ = drive(node, get())
    assert data == b"v2"


def test_compare_and_swap():
    node, store = make_store()
    drive(node, store.put("k", b"v1"))
    with pytest.raises(VersionMismatchError):
        drive(node, store.put("k", b"v2", expect_version=7))
    drive(node, store.put("k", b"v2", expect_version=1))
    with pytest.raises(VersionMismatchError):
        drive(node, store.put("fresh", b"x", expect_version=3))  # must not exist
    drive(node, store.put("fresh", b"x", expect_version=0))


def test_delete_and_missing_key():
    node, store = make_store()
    drive(node, store.put("k", b"v"))
    drive(node, store.delete("k"))
    assert not store.exists("k")
    with pytest.raises(ObjectStoreError, match="no such object"):
        drive(node, store.delete("k"))
    with pytest.raises(ObjectStoreError, match="no such object"):
        node.sim.run(node.sim.process(store.get("k")))


def test_get_key_range_is_ordered():
    node, store = make_store()
    for key in ("beta", "alpha", "delta", "gamma"):
        drive(node, store.put(key, b"x"))
    assert store.get_key_range() == ["alpha", "beta", "delta", "gamma"]
    assert store.get_key_range(start="b", end="f") == ["beta", "delta"]
    assert store.get_key_range(limit=2) == ["alpha", "beta"]


def test_checksum_catches_corruption():
    node, store = make_store()
    drive(node, store.put("k", b"precious"))
    # corrupt the backing file behind the store's back
    drive(node, store.fs.write_file("obj.k", b"tampered!"))

    def get():
        return (yield from store.get("k"))

    with pytest.raises(ObjectStoreError, match="checksum"):
        drive(node, get())


def test_persist_and_load():
    node, store = make_store()
    drive(node, store.put("a", b"1", tags={"t": "x"}))
    drive(node, store.put("b", b"22"))
    drive(node, store.persist())
    reborn = ObjectStore(store.fs)
    drive(node, reborn.load())
    assert reborn.get_key_range() == ["a", "b"]
    assert reborn.head("a").tags == {"t": "x"}

    def get():
        return (yield from reborn.get("b"))

    data, meta = drive(node, get())
    assert data == b"22"
    assert meta.version == 1


def test_in_situ_object_scan():
    """Objects + in-situ processing, combined: objscan runs inside the SSD."""
    node, store = make_store()
    drive(node, store.put("doc1", b"the fox is here\nfox again\n"))
    drive(node, store.put("doc2", b"no animals\n"))
    node.compstors[0].isps.os.install_executable(ObjScanApp())

    def flow():
        return (yield from node.client.run("compstor0", "objscan fox doc1 doc2"))

    response = drive(node, flow())
    assert response.ok
    assert response.stdout == b"doc1:2 doc2:0"
    assert response.detail["total_matches"] == 2


def test_objscan_missing_object():
    node, store = make_store()
    node.compstors[0].isps.os.install_executable(ObjScanApp())

    def flow():
        return (yield from node.client.run("compstor0", "objscan x ghost"))

    response = drive(node, flow())
    assert response.exit_code == 1
    assert b"no such object" in response.stdout


def test_objscan_pattern_across_pages():
    node, store = make_store()
    page = node.compstors[0].fs.page_size
    blob = b"a" * (page - 3) + b"needle" + b"b" * 50
    drive(node, store.put("span", blob))
    node.compstors[0].isps.os.install_executable(ObjScanApp())

    def flow():
        return (yield from node.client.run("compstor0", "objscan needle span"))

    response = drive(node, flow())
    assert response.stdout == b"span:1"


def test_total_bytes_and_head():
    node, store = make_store()
    drive(node, store.put("a", b"12345"))
    drive(node, store.put("b", b"678"))
    assert store.total_bytes() == 8
    assert store.head("a").size == 5
    with pytest.raises(ObjectStoreError):
        store.head("zzz")


# -- property-based: store vs dict oracle -----------------------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

KEYS = ("k1", "k2", "k3")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.sampled_from(KEYS), st.binary(min_size=1, max_size=64)),
            st.tuples(st.just("delete"), st.sampled_from(KEYS), st.just(b"")),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_object_store_matches_dict_oracle(ops):
    node, store = make_store()
    oracle: dict[str, bytes] = {}
    versions: dict[str, int] = {}

    def driver():
        for op, key, payload in ops:
            if op == "put":
                meta = yield from store.put(key, payload)
                oracle[key] = payload
                versions[key] = versions.get(key, 0) + 1
                assert meta.version == versions[key]
            else:
                if key in oracle:
                    yield from store.delete(key)
                    oracle.pop(key)
                    versions.pop(key, None)  # versions restart after delete
                else:
                    try:
                        yield from store.delete(key)
                        raise AssertionError("delete of missing key succeeded")
                    except ObjectStoreError:
                        pass
        # final check
        assert store.get_key_range() == sorted(oracle)
        for key, expected in oracle.items():
            data, meta = yield from store.get(key)
            assert data == expected
            assert meta.size == len(expected)

    drive(node, driver())
