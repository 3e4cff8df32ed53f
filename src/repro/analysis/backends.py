"""Backend comparison cells: the same in-situ workload per device backend.

The device backend (page-mapped vs zoned) is a *storage* axis: it changes
where pages land on flash, how garbage collection reclaims space, and
therefore timing — but it must never change what a minion computes.  The
cells here make that claim checkable: each cell runs a Fig. 6-style
weak-scaling workload on one ``(backend, app, devices)`` point and digests
every minion's status + stdout in assignment order.  Equal digests across
backends ⇒ the computation is backend-independent; the throughput columns
then compare the backends' storage behaviour on identical work.

Cells are JSON-encodable parallel-runner work items (the ``backends``
family in :mod:`repro.families`), so a backend sweep runs under the same
deterministic matrix machinery as the figures.  :func:`smart_cell`, behind
the ``smart`` verb, reads one drive's SMART/health log after a workload;
SMART builds its page from the backend's one snapshot, ``stats()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.analysis.experiments import throughput_mb_s
from repro.analysis.figures import _device_pass, _input_bytes
from repro.config import DeviceBackendConfig, scenario_from_dict
from repro.ftl import DEVICE_BACKENDS

__all__ = ["BACKEND_APPS", "backend_cell", "smart_cell"]

#: Apps whose output the comparison pins across backends.  ``grep`` reads
#: plain text and emits matches; ``gzip`` reads plain text and emits a
#: compressed stream — together they cover scan-heavy and transform-heavy
#: minions without needing compressed staging.
BACKEND_APPS: tuple[str, ...] = ("grep", "gzip")


def backend_cell(
    backend: str,
    app: str,
    scenario: dict,
    devices: int = 2,
) -> dict:
    """One comparison cell: ``app`` on a ``devices``-node under ``backend``.

    ``scenario`` is a :class:`~repro.config.ScenarioConfig` as a plain dict
    (the form job kwargs travel in, so it participates in the matrix cache
    key).  The cell replaces only the scenario's ``device.backend`` — any
    zoned knobs (``zone_blocks``, ``max_open_zones``) set on the scenario
    are honoured — so every backend sees an identical workload.

    Returns a JSON-encodable dict with the throughput, an order-sensitive
    digest of every minion's ``status``/``stdout``, and the per-device
    storage counters that differ by construction (GC collections, write
    amplification, zoned-only zone telemetry).
    """
    if backend not in DEVICE_BACKENDS:
        raise ValueError(f"unknown device backend {backend!r}; use {sorted(DEVICE_BACKENDS)}")
    config = scenario_from_dict(scenario)
    base = config.device if config.device is not None else DeviceBackendConfig()
    config = replace(
        config,
        device=replace(base, backend=backend),
        corpus=replace(config.corpus, files=config.corpus.files * devices),
    )
    run = _device_pass(config, app, devices)

    digest = hashlib.sha256()
    digest.update(f"{app}:{devices}".encode())
    for response in run.results:
        digest.update(response.status.value.encode())
        digest.update(b"\x00")
        digest.update(response.stdout)
        digest.update(b"\x01")

    ftls = [ssd.ftl for ssd in run.node.compstors]
    programs = sum(ftl.flash.stats.programs for ftl in ftls)
    host_pages = sum(ftl.host_pages_programmed for ftl in ftls)
    cell = {
        "backend": backend,
        "app": app,
        "devices": devices,
        "minions": len(run.results),
        "throughput_mb_s": round(
            throughput_mb_s(_input_bytes(run.books, app), run.seconds), 3
        ),
        "output_digest": digest.hexdigest()[:16],
        "gc_collections": sum(ftl.stats()["gc_collections"] for ftl in ftls),
        "write_amplification": round(
            programs / host_pages if host_pages else 1.0, 4
        ),
        "uncorrectable_reads": sum(ftl.uncorrectable_reads for ftl in ftls),
    }
    if backend == "zoned":
        stats = [ftl.stats() for ftl in ftls]
        cell["zones"] = {  # per_device: the zone count, summed over states
            "per_device": sum(n for k, n in stats[0].items() if k.startswith("zones_")),
            "resets": sum(s["zone_resets"] for s in stats),
            "retired": sum(s["zones_offline"] for s in stats),
            "full": sum(s["zones_full"] for s in stats),
            "open": sum(s["zones_open"] for s in stats),
        }
    return cell


def smart_cell(scenario: dict, files: int = 4) -> list:
    """``[attribute, value]`` rows of one CompStor's SMART/health log after
    it gzips ``files`` freshly staged books."""
    from repro.config import build_node
    from repro.workloads import BookCorpus, CorpusSpec

    config = scenario_from_dict(scenario)
    config = replace(config, fleet=replace(config.fleet, devices_per_node=1))
    node = build_node(config)
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=files, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))

    def workload():
        for book in books:
            yield from node.client.run("compstor0", f"gzip {book.name}")

    sim.run(sim.process(workload()))
    rows = []
    for key, value in node.compstors[0].controller.smart_log().items():
        if key == "latency":
            for opcode, stats in value.items():
                rows.append([f"latency.{opcode}",
                             f"n={stats['count']} mean={stats['mean'] * 1e6:.1f}us"])
        else:
            rows.append([key, value])
    return rows
