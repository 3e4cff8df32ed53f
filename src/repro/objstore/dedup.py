"""Fleet-level deduplicating object store with in-storage chunk+hash.

The write path is the in-situ pitch applied to storage itself: a PUT ships
the payload to one device, a ``chunksum`` minion computes content-defined
boundaries and per-chunk SHA-1 digests *inside the drive*, and only the
digest recipe crosses PCIe back to the coordinator.  The coordinator then
writes just the *novel* chunks — each replicated on ``replicas`` consecutive
devices of a digest-placed ring chain — and commits the object manifest.
Duplicate chunks cost one index lookup and a refcount bump; their bytes are
never written again.

Crash-safety ordering (the invariant the GC drill checks):

1. temp upload (``put.<key>`` on the object's primary device);
2. in-situ ``chunksum`` (host-side fallback if every chain device is dead);
3. novel block writes (``blk.<digest>`` on the digest's chain);
4. manifest commit — *last*, and only if every chunk landed somewhere;
5. temp delete.

An interrupted PUT therefore leaves only uncommitted garbage (a stale temp,
orphan blocks no manifest references), never a committed object with a
missing chunk.  :meth:`DedupObjectStore.gc` is a stop-the-world
mark-and-sweep that deletes *only* unreferenced files, so a device crash
mid-GC can at worst postpone reclamation — it can never lose a referenced
block.  :meth:`DedupObjectStore.check_integrity` is the oracle: every chunk
of every committed object must be present on at least one chain device.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Generator

from repro.cluster.fleet import StorageFleet
from repro.host.insitu import InSituError
from repro.isos.filesystem import FsError
from repro.objstore.apps import ChunkSumApp
from repro.objstore.chunking import ChunkParams, chunk_digests
from repro.objstore.store import ObjectStoreError
from repro.proto.entities import Command

__all__ = ["BLOCK_PREFIX", "TEMP_PREFIX", "BlockEntry", "DedupObjectStore", "DedupStats"]

#: Immutable chunk payloads, content-addressed: ``blk.<sha1hex>``.
BLOCK_PREFIX = "blk."
#: In-flight PUT uploads: ``put.<key>``; stale ones are GC fodder.
TEMP_PREFIX = "put."


def _place(token: str, n: int) -> int:
    """Deterministic ring position for a key or digest (crc32, like
    :func:`repro.service.traffic.assign_class`)."""
    return zlib.crc32(token.encode()) % n


@dataclass(slots=True)
class BlockEntry:
    """Index record for one unique chunk."""

    size: int
    refcount: int
    chain: tuple[tuple[int, str], ...]  # replica targets, primary first


@dataclass(slots=True)
class DedupStats:
    """Byte accounting across committed PUTs.

    The identity ``stored_bytes + deduped_bytes == offered_bytes`` holds
    after every committed PUT (pinned by a Hypothesis property):
    every offered byte is either the first occurrence of its chunk (stored)
    or a repeat (deduped).  ``physical_bytes`` additionally counts replica
    copies actually written.
    """

    offered_bytes: int = 0  # payload bytes of committed PUTs
    stored_bytes: int = 0  # unique chunk bytes (one logical copy)
    deduped_bytes: int = 0  # repeat chunk bytes never rewritten
    physical_bytes: int = 0  # block bytes written incl. replicas
    puts: int = 0
    failed_puts: int = 0
    gets: int = 0
    deletes: int = 0
    chunks_offered: int = 0
    chunks_deduped: int = 0
    host_chunk_fallbacks: int = 0  # PUTs chunked host-side (no device answered)
    gc_passes: int = 0
    gc_blocks_reclaimed: int = 0
    gc_temps_reclaimed: int = 0
    gc_bytes_reclaimed: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Offered over stored (>= 1.0; higher is better)."""
        return self.offered_bytes / self.stored_bytes if self.stored_bytes else 1.0

    def to_payload(self) -> dict:
        return {
            "offered_bytes": self.offered_bytes,
            "stored_bytes": self.stored_bytes,
            "deduped_bytes": self.deduped_bytes,
            "physical_bytes": self.physical_bytes,
            "dedup_ratio": round(self.dedup_ratio, 6),
            "puts": self.puts,
            "failed_puts": self.failed_puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "chunks_offered": self.chunks_offered,
            "chunks_deduped": self.chunks_deduped,
            "host_chunk_fallbacks": self.host_chunk_fallbacks,
            "gc_passes": self.gc_passes,
            "gc_blocks_reclaimed": self.gc_blocks_reclaimed,
            "gc_temps_reclaimed": self.gc_temps_reclaimed,
            "gc_bytes_reclaimed": self.gc_bytes_reclaimed,
        }


@dataclass(slots=True)
class _Manifest:
    """One committed object: its chunk recipe, in payload order."""

    key: str
    recipe: tuple[tuple[str, int], ...]  # (sha1hex, length)
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = sum(length for _, length in self.recipe)


class DedupObjectStore:
    """Content-addressed, replicated object layer over a storage fleet."""

    def __init__(
        self,
        fleet: StorageFleet,
        params: ChunkParams | None = None,
        replicas: int = 2,
    ):
        self.fleet = fleet
        #: ``(node index, device name) -> device``: the fleet's own O(1)
        #: lookup, bound once (it runs per chunk and per replica)
        self._ssd = fleet._ssd
        self.params = params if params is not None else ChunkParams()
        self.ring = fleet.device_ring()
        if not 1 <= replicas <= len(self.ring):
            raise ValueError(f"replicas must be in [1, {len(self.ring)}]")
        self.replicas = replicas
        self.index: dict[str, BlockEntry] = {}
        self.manifests: dict[str, _Manifest] = {}
        self.stats = DedupStats()
        # dynamic task loading: every device gets the chunksum executable
        for node_index, device in self.ring:
            self._ssd(node_index, device).isps.os.install_executable(ChunkSumApp())

    # -- topology helpers ----------------------------------------------------
    def _crashed(self, node_index: int, device: str) -> bool:
        faults = self._ssd(node_index, device).controller.faults
        return faults is not None and faults.crashed

    def _chain(self, token: str) -> tuple[tuple[int, str], ...]:
        ring = self.ring
        base = _place(token, len(ring))
        return tuple([ring[(base + j) % len(ring)] for j in range(self.replicas)])

    # -- write path ----------------------------------------------------------
    def put(self, key: str, payload: bytes) -> Generator:
        """Store ``payload`` under ``key``; returns the chunk recipe.

        Raises :class:`ObjectStoreError` when no device chain can hold some
        novel chunk (every replica target crashed) — in which case nothing
        was committed and GC will reclaim any partial writes.
        """
        recipe = yield from self._chunksum(key, payload)
        # which chunks are novel right now (first occurrence in this payload
        # counts as novel; later repeats within the same payload dedup)
        novel: dict[str, bytes] = {}
        offset = 0
        for digest, length in recipe:
            blob = payload[offset:offset + length]
            offset += length
            if digest not in self.index and digest not in novel:
                novel[digest] = blob
        written: dict[str, tuple[tuple[int, str], ...]] = {}
        touched: set[tuple[int, str]] = set()
        for digest, blob in novel.items():
            placed = []
            for node_index, device in self._chain(digest):
                if self._crashed(node_index, device):
                    continue
                fs = self._ssd(node_index, device).fs
                try:
                    yield from fs.write_file(BLOCK_PREFIX + digest, blob)
                except FsError:
                    continue  # that replica is full; the rest may fit
                placed.append((node_index, device))
                touched.add((node_index, device))
                self.stats.physical_bytes += len(blob)
            if not placed:
                # abort *before* commit: orphan blocks written so far stay
                # unreferenced and the next GC pass reclaims them
                self.stats.failed_puts += 1
                raise ObjectStoreError(
                    f"put {key!r}: no surviving replica target for chunk {digest[:12]}"
                )
            written[digest] = tuple(placed)
        for node_index, device in sorted(touched):
            yield from self._ssd(node_index, device).fs.device.flush()
        # -- commit point: manifest + index updates happen together ---------
        # (incref the new recipe *before* releasing an overwritten version,
        # so chunks shared between the two never hit refcount zero)
        previous = self.manifests.get(key)
        for digest, length in recipe:
            entry = self.index.get(digest)
            if entry is None:
                # `written` covers chunks novel at write time; a chunk whose
                # index entry vanished between chunking and commit (a racing
                # delete) still has its file on the digest-placed chain
                self.index[digest] = BlockEntry(
                    size=length,
                    refcount=1,
                    chain=written.get(digest, self._chain(digest)),
                )
                self.stats.stored_bytes += length
            else:
                entry.refcount += 1
                self.stats.deduped_bytes += length
                self.stats.chunks_deduped += 1
        if previous is not None:
            yield from self._decref(previous.recipe)
        self.manifests[key] = _Manifest(key=key, recipe=tuple(recipe))
        self.stats.offered_bytes += len(payload)
        self.stats.chunks_offered += len(recipe)
        self.stats.puts += 1
        yield from self._drop_temp(key)
        return list(recipe)

    def _chunksum(self, key: str, payload: bytes) -> Generator:
        """Upload the payload once and chunk+hash it in-situ.

        Tries each device of the key-placed chain in turn; if none answers
        (all crashed mid-burst), falls back to host-side chunking — the same
        degraded path :meth:`StorageFleet.run_job` takes for reads.
        """
        p = self.params
        temp = TEMP_PREFIX + key
        for node_index, device in self._chain(key):
            if self._crashed(node_index, device):
                continue
            ssd = self._ssd(node_index, device)
            try:
                yield from ssd.fs.write_file(temp, payload)
            except FsError:
                continue  # no room for the staging copy on this device
            client = self.fleet.nodes[node_index].client
            command = Command(
                command_line=(
                    f"chunksum {p.min_size} {p.avg_size} {p.max_size} {temp}"
                )
            )
            try:
                minion = yield from client.send_minion(device, command)
            except InSituError:
                continue  # device died under us; try the next chain link
            response = minion.response
            if response.exit_code != 0:
                raise ObjectStoreError(
                    f"chunksum failed on {device}: {response.stdout!r}"
                )
            return self._parse_recipe(response.stdout)
        self.stats.host_chunk_fallbacks += 1
        return chunk_digests(payload, p)

    @staticmethod
    def _parse_recipe(stdout: bytes) -> list[tuple[str, int]]:
        recipe: list[tuple[str, int]] = []
        for line in stdout.decode().splitlines():
            digest, length = line.split()
            recipe.append((digest, int(length)))
        return recipe

    def _drop_temp(self, key: str) -> Generator:
        temp = TEMP_PREFIX + key
        for node_index, device in self._chain(key):
            if self._crashed(node_index, device):
                continue  # stale temp on a dead device: next GC's problem
            fs = self._ssd(node_index, device).fs
            if fs.exists(temp):
                yield from fs.delete(temp)
        return None

    # -- read path -----------------------------------------------------------
    def get(self, key: str) -> Generator:
        """Reassemble ``key`` from its chunks; verifies digests when the
        devices store payloads (functional mode)."""
        manifest = self.manifests.get(key)
        if manifest is None:
            raise ObjectStoreError(f"no such object: {key!r}")
        parts: list[bytes] = []
        analytic = False
        for digest, length in manifest.recipe:
            entry = self.index[digest]
            blob = None
            for node_index, device in entry.chain:
                if self._crashed(node_index, device):
                    continue
                fs = self._ssd(node_index, device).fs
                if not fs.exists(BLOCK_PREFIX + digest):
                    continue
                blob = yield from fs.read_file(BLOCK_PREFIX + digest)
                break
            else:
                raise ObjectStoreError(
                    f"get {key!r}: chunk {digest[:12]} unavailable "
                    "(all replicas crashed or missing)"
                )
            if blob is None:
                analytic = True
                continue
            if hashlib.sha1(blob).hexdigest() != digest:
                raise ObjectStoreError(f"get {key!r}: chunk {digest[:12]} corrupt")
            parts.append(blob)
        self.stats.gets += 1
        return None if analytic else b"".join(parts)

    # -- delete + GC ---------------------------------------------------------
    def delete(self, key: str) -> Generator:
        """Drop the manifest and release its chunk references.

        Zero-ref block files stay on the devices until :meth:`gc` sweeps
        them — deletion is a metadata operation, reclamation is batched.
        """
        manifest = self.manifests.pop(key, None)
        if manifest is None:
            raise ObjectStoreError(f"no such object: {key!r}")
        yield from self._decref(manifest.recipe)
        self.stats.deletes += 1
        return None

    def _decref(self, recipe: tuple[tuple[str, int], ...]) -> Generator:
        for digest, _ in recipe:
            entry = self.index.get(digest)
            if entry is None:
                continue
            entry.refcount -= 1
            if entry.refcount <= 0:
                # stats stay cumulative (stored + deduped == offered holds
                # across deletes); the block file itself waits for gc()
                del self.index[digest]
        return None
        yield  # pragma: no cover - generator protocol

    def gc(self) -> Generator:
        """Stop-the-world mark-and-sweep reclamation.

        Mark: every digest referenced by a committed manifest (== the live
        index).  Sweep: on every *reachable* device, delete block files not
        in the mark set and every stale temp.  Crashed devices are skipped —
        their garbage survives until a later pass, which only delays
        reclamation.  Referenced blocks are never deletion candidates, so an
        interruption at any point cannot lose committed data.

        Returns ``{"blocks": n, "temps": n, "bytes": n}`` reclaimed.
        """
        marked = set(self.index)
        blocks = temps = nbytes = 0
        for node_index, device in self.ring:
            if self._crashed(node_index, device):
                continue
            fs = self._ssd(node_index, device).fs
            for name in fs.listdir():
                if name.startswith(BLOCK_PREFIX):
                    if name[len(BLOCK_PREFIX):] in marked:
                        continue
                    nbytes += fs.stat(name).size
                    yield from fs.delete(name)
                    blocks += 1
                elif name.startswith(TEMP_PREFIX):
                    nbytes += fs.stat(name).size
                    yield from fs.delete(name)
                    temps += 1
        self.stats.gc_passes += 1
        self.stats.gc_blocks_reclaimed += blocks
        self.stats.gc_temps_reclaimed += temps
        self.stats.gc_bytes_reclaimed += nbytes
        return {"blocks": blocks, "temps": temps, "bytes": nbytes}

    # -- invariants ----------------------------------------------------------
    def check_integrity(self) -> dict:
        """Oracle for the crash drill: no committed chunk may be lost.

        A chunk counts as *lost* only when no device in the whole ring holds
        its block file — crashed devices keep their flash contents and come
        back, so unavailability is not loss.  Also re-derives refcounts from
        the manifests and reports any index drift.
        """
        lost: set[str] = set()
        present: set[str] = set()
        for node_index, device in self.ring:
            fs = self._ssd(node_index, device).fs
            for name in fs.listdir():
                if name.startswith(BLOCK_PREFIX):
                    present.add(name[len(BLOCK_PREFIX):])
        want: dict[str, int] = {}
        for manifest in self.manifests.values():
            for digest, _ in manifest.recipe:
                want[digest] = want.get(digest, 0) + 1
                if digest not in present:
                    lost.add(digest)
        drift = sorted(
            digest
            for digest in set(want) | set(self.index)
            if want.get(digest, 0) != (
                self.index[digest].refcount if digest in self.index else 0
            )
        )
        accounted = (
            self.stats.stored_bytes + self.stats.deduped_bytes
            == self.stats.offered_bytes
        )
        return {
            "objects": len(self.manifests),
            "unique_blocks": len(self.index),
            "lost_blocks": sorted(lost),
            "refcount_drift": drift,
            "accounting_ok": accounted,
            "ok": not lost and not drift and accounted,
        }
