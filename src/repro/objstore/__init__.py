"""Object-oriented storage layer (extension).

The paper (Section II) discusses Seagate Kinetic drives — object stores
accessed by key rather than block address — and argues in-situ processing
is *orthogonal*: "a storage could be either in-situ processing or
object-oriented or both at the same time".  This package demonstrates the
"both" case: a fleet-level deduplicating object store whose write path
*is* in-situ computation (:class:`DedupObjectStore`).  ``chunksum`` minions
compute content-defined chunk boundaries and per-chunk digests inside each
drive, so duplicate data never crosses PCIe twice, with digest-placed
replica chains and stop-the-world GC carrying the durability story.
"""

from repro.objstore.apps import ChunkSumApp
from repro.objstore.chunking import ChunkParams, Chunker, chunk_digests, chunk_spans
from repro.objstore.dedup import BlockEntry, DedupObjectStore, DedupStats
from repro.objstore.store import ObjectStoreError
from repro.objstore.workload import ObjectSpec, generate_objects

__all__ = [
    "BlockEntry",
    "ChunkParams",
    "ChunkSumApp",
    "Chunker",
    "DedupObjectStore",
    "DedupStats",
    "ObjectSpec",
    "ObjectStoreError",
    "chunk_digests",
    "chunk_spans",
    "generate_objects",
]
