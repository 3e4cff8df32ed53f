#!/usr/bin/env python3
"""Object storage + in-situ processing, combined.

The paper (Section II) positions in-situ processing as *orthogonal* to
object-oriented storage (Seagate Kinetic): "a storage could be either
in-situ processing or object-oriented or both at the same time".  This
example demonstrates *both*: a Kinetic-style key-value store living on a
CompStor, with versioned PUT/GET/DELETE and key-range queries, plus an
in-situ ``objscan`` executable that searches objects without moving them.

Run:  python examples/object_storage.py
"""

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.objstore import ObjScanApp, ObjectStore
from repro.objstore.store import VersionMismatchError
from repro.workloads import BookCorpus, CorpusSpec


def main() -> None:
    node = build_node(ScenarioConfig(
        flash=FlashConfig(capacity_bytes=32 * 1024 * 1024),
        fleet=FleetConfig(devices_per_node=1),
    ))
    sim = node.sim
    store = ObjectStore(node.compstors[0].fs)
    node.compstors[0].isps.os.install_executable(ObjScanApp())

    books = BookCorpus(CorpusSpec(files=4, mean_file_bytes=48 * 1024)).generate()

    def session():
        # PUT the corpus as objects with tags
        for book in books:
            meta = yield from store.put(
                book.name.replace(".txt", ""),
                book.plain,
                tags={"compression": book.compression, "kind": "book"},
            )
            print(f"PUT {meta.key}: {meta.size} B, version {meta.version}, "
                  f"sha1 {meta.sha1[:10]}...")

        # ordered key-range query (the Kinetic API)
        keys = store.get_key_range(start="book0001", end="book0003")
        print(f"\nkey range [book0001..book0003]: {keys}")

        # compare-and-swap: concurrent-writer protection
        yield from store.put("book0000", b"edited!", expect_version=1)
        try:
            yield from store.put("book0000", b"stale edit", expect_version=1)
        except VersionMismatchError as exc:
            print(f"CAS protected us: {exc}")

        # in-situ scan over objects: computation goes to the data
        keys = " ".join(store.get_key_range(start="book0001"))
        response = yield from node.client.run("compstor0", f"objscan xylophone {keys}")
        print(f"\nin-situ objscan: {response.stdout.decode()}")
        print(f"   ({response.detail['total_matches']} total matches across "
              f"{response.detail['objects']} objects, "
              f"{response.execution_seconds * 1e3:.1f} ms inside the drive)")

        # durability: persist the object index, reboot, reload
        yield from store.persist()
        reborn = ObjectStore(store.fs)
        yield from reborn.load()
        print(f"\nafter 'reboot': {len(reborn.get_key_range())} objects recovered, "
              f"{reborn.total_bytes()} bytes")

    sim.run(sim.process(session()))


if __name__ == "__main__":
    main()
