"""NVMe controller front-end.

Pulls commands from the queue pairs (round-robin arbitration via per-queue
worker pools), runs DMA over the attached PCIe port, executes IO against the
FTL, and dispatches vendor ISC commands to a registered handler.

The handler contract for ISC opcodes is ``handler(opcode, payload_body)``
returning a generator that yields simulation events and returns the result
object placed in the completion — CompStor's ISPS agent transport plugs in
here without the controller knowing anything about minions.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Generator

from repro.faults.state import AgentUnavailable
from repro.ftl import LogicalIOError, TranslationBackend
from repro.nvme.commands import NvmeCommand, NvmeCompletion, Opcode, Status
from repro.nvme.queues import QueuePair
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import continue_trace
from repro.pcie.switch import PciePort
from repro.sim import Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["NvmeController"]

IscHandler = Callable[[Opcode, Any], Generator]


class NvmeController:
    """Front-end processor bridging queue pairs, DMA, FTL and ISC handler.

    Parameters
    ----------
    sim, ftl:
        Simulator and the backing translation layer — any
        :class:`~repro.ftl.TranslationBackend` (the controller never touches
        backend-specific internals).
    port:
        PCIe attachment; ``None`` models a direct-attached loopback (used in
        unit tests) with zero-cost DMA.
    queue_pairs, queue_depth, workers_per_queue:
        Queue topology.  Workers bound the per-queue command concurrency the
        way real controllers bound outstanding commands.
    firmware_latency:
        Fixed front-end processing cost per command (dedicated front-end
        hardware, CompStor's design).
    firmware_cluster, firmware_cycles:
        Alternative: charge front-end processing as cycles on a CPU cluster.
        Used by the Biscuit-style baseline, where ISC tasks share the very
        cores that run command processing — so computation visibly degrades
        storage latency (the interference CompStor's dedicated ISPS avoids).
    """

    def __init__(
        self,
        sim: Simulator,
        ftl: TranslationBackend,
        port: PciePort | None = None,
        queue_pairs: int = 1,
        queue_depth: int = 64,
        workers_per_queue: int = 8,
        firmware_latency: float = 5e-6,
        name: str = "nvme",
        tracer: Tracer | None = None,
        firmware_cluster=None,
        firmware_cycles: float = 15_000.0,
        metrics: MetricsRegistry | None = None,
    ):
        if queue_pairs < 1 or workers_per_queue < 1:
            raise ValueError("queue_pairs and workers_per_queue must be >= 1")
        self.sim = sim
        self.ftl = ftl
        self.port = port
        self.firmware_latency = firmware_latency
        self.firmware_cluster = firmware_cluster
        self.firmware_cycles = firmware_cycles
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._m_latency = self.metrics.histogram(
            "nvme.command.latency_seconds", "submission-to-completion latency per opcode"
        )
        self.metrics.counter_view(
            "nvme.commands", "NVMe commands completed, by opcode and status",
            lambda: {(op, status.name): n for (op, status), n in self.completions.items()},
            keys=("opcode", "status"), device=name,
        )
        self.queues = [
            QueuePair(sim, qid=q, depth=queue_depth, name=f"{name}.qp") for q in range(queue_pairs)
        ]
        self._isc_handler: IscHandler | None = None
        #: Fault hook (``repro.faults.DeviceFaultState``), installed lazily
        #: by a FaultInjector; ``None`` costs one attribute test per command.
        self.faults = None
        self.commands_executed = 0
        self.isc_commands = 0
        #: completions posted, refused ones included, by (opcode name, Status)
        self.completions: Counter[tuple[str, Status]] = Counter()
        # per-opcode latency accounting (count, total, max) for QoS reporting
        self._latency: dict[str, list[float]] = {}
        self._workers = [
            sim.process(self._worker(qp), name=f"{name}.q{qp.qid}w{w}")
            for qp in self.queues
            for w in range(workers_per_queue)
        ]

    # -- wiring ---------------------------------------------------------------
    def register_isc_handler(self, handler: IscHandler) -> None:
        """Install the in-storage-computation dispatcher (ISPS transport)."""
        if self._isc_handler is not None:
            raise RuntimeError("ISC handler already registered")
        self._isc_handler = handler

    def queue(self, index: int = 0) -> QueuePair:
        return self.queues[index]

    # -- execution ------------------------------------------------------------
    def _worker(self, qp: QueuePair) -> Generator:
        while True:
            submitted_at, command = yield from qp.fetch()
            # Enum .name is a descriptor lookup; resolve it once per command
            # for the bookkeeping below.
            opname = command.opcode.name
            refusal = self.faults.intercept() if self.faults is not None else None
            if refusal is not None:
                # a crashed/flaky front end aborts immediately: the host
                # driver's view of a dead drive is a fast failed completion
                completion = NvmeCompletion(
                    cid=command.cid,
                    status=Status[refusal],
                    result=None,
                    submitted_at=submitted_at,
                    completed_at=self.sim.now,
                )
                self.completions[opname, completion.status] += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.sim.now, self.name, "nvme.refused",
                        opcode=opname, status=completion.status.name,
                    )
                yield from qp.post(completion)
                continue
            if self.firmware_cluster is not None:
                # shared-core design: command processing competes with ISC
                yield from self.firmware_cluster.execute(self.firmware_cycles)
            elif self.faults is not None and self.faults.limp_factor != 1.0:
                yield self.sim.timeout(self.firmware_latency * self.faults.limp_factor)
            else:
                yield self.sim.timeout(self.firmware_latency)
            status, result = yield from self._execute(command)
            if self.faults is not None and self.faults.crashed:
                # the device died while this command was in flight: whatever
                # the back end produced never reaches the completion queue
                status, result = Status.DEVICE_UNAVAILABLE, None
            completion = NvmeCompletion(
                cid=command.cid,
                status=status,
                result=result,
                submitted_at=submitted_at,
                completed_at=self.sim.now,
            )
            self.commands_executed += 1
            stats = self._latency.get(opname)
            if stats is None:
                stats = self._latency[opname] = [0, 0.0, 0.0]
            stats[0] += 1
            stats[1] += completion.latency
            stats[2] = max(stats[2], completion.latency)
            self.completions[opname, status] += 1
            if self.metrics.enabled:
                self._m_latency.observe(
                    completion.latency, device=self.name, opcode=opname
                )
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, self.name, "nvme.complete",
                    opcode=opname, status=status.name,
                )
            yield from qp.post(completion)

    def _execute(self, command: NvmeCommand) -> Generator:
        opcode = command.opcode
        try:
            if opcode == Opcode.READ:
                return (yield from self._do_read(command))
            if opcode == Opcode.WRITE:
                return (yield from self._do_write(command))
            if opcode == Opcode.DSM_TRIM:
                return (yield from self._do_trim(command))
            if opcode == Opcode.FLUSH:
                yield from self.ftl.flush()
                return Status.SUCCESS, None
            if opcode == Opcode.IDENTIFY:
                return Status.SUCCESS, self.identify()
            if opcode == Opcode.GET_LOG_PAGE:
                return Status.SUCCESS, self.smart_log()
            if opcode.is_vendor:
                return (yield from self._do_isc(command))
        except LogicalIOError:
            return Status.MEDIA_ERROR, None
        return Status.INVALID_OPCODE, None

    def _check_range(self, command: NvmeCommand) -> bool:
        return 0 <= command.slba and command.slba + command.nlb <= self.ftl.logical_pages

    def _do_read(self, command: NvmeCommand) -> Generator:
        if not self._check_range(command):
            return Status.LBA_OUT_OF_RANGE, None
        pages: list[bytes | None] = []
        for lpn in range(command.slba, command.slba + command.nlb):
            pages.append((yield from self.ftl.read(lpn)))
        nbytes = command.nlb * self.ftl.page_size
        if self.port is not None:
            yield from self.port.to_host(nbytes)
        return Status.SUCCESS, pages

    def _do_write(self, command: NvmeCommand) -> Generator:
        if not self._check_range(command):
            return Status.LBA_OUT_OF_RANGE, None
        nbytes = command.transfer_bytes_to_device or command.nlb * self.ftl.page_size
        if self.port is not None:
            yield from self.port.from_host(nbytes)
        page_size = self.ftl.page_size
        data = command.data
        for i, lpn in enumerate(range(command.slba, command.slba + command.nlb)):
            chunk = None
            if data is not None:
                chunk = data[i * page_size : (i + 1) * page_size]
            yield from self.ftl.write(lpn, chunk)
        return Status.SUCCESS, None

    def _do_trim(self, command: NvmeCommand) -> Generator:
        lbas = command.lbas
        if lbas is None:
            lbas = list(range(command.slba, command.slba + command.nlb))
        if any(not 0 <= lba < self.ftl.logical_pages for lba in lbas):
            return Status.LBA_OUT_OF_RANGE, None
        yield from self.ftl.trim(lbas)
        return Status.SUCCESS, None

    def _do_isc(self, command: NvmeCommand) -> Generator:
        if self._isc_handler is None:
            return Status.INVALID_OPCODE, None
        payload = command.payload
        assert payload is not None  # validated by NvmeCommand
        if self.port is not None and payload.nbytes:
            yield from self.port.from_host(payload.nbytes)
        self.isc_commands += 1
        # Minions carrying a span context get a transport hop in their tree;
        # the agent then parents its execution span under this one.
        body = payload.body
        span = None
        parent_ctx = getattr(body, "span", None)
        if parent_ctx is not None and self.tracer.enabled:
            span = continue_trace(
                self.tracer, self.sim, "nvme.isc", self.name, parent_ctx
            )
            body.span = span.context
        try:
            result = yield from self._isc_handler(command.opcode, body)
        except AgentUnavailable:
            if span is not None:
                span.end(status="ISC_AGENT_DOWN")
                body.span = parent_ctx
            return Status.ISC_AGENT_DOWN, None
        except Exception:
            if span is not None:
                span.end(status="ISC_FAILURE")
                body.span = parent_ctx
            return Status.ISC_FAILURE, None
        if span is not None:
            span.end()
            body.span = parent_ctx
        # result envelopes travel back over the wire too
        if self.port is not None:
            result_bytes = getattr(result, "nbytes", 256)
            yield from self.port.to_host(result_bytes)
        return Status.SUCCESS, result

    # -- admin ------------------------------------------------------------
    def latency_stats(self) -> dict[str, dict[str, float]]:
        """Per-opcode ``{count, mean, max}`` command latencies (seconds)."""
        return {
            opcode: {"count": c, "mean": total / c if c else 0.0, "max": worst}
            for opcode, (c, total, worst) in self._latency.items()
        }

    def smart_log(self) -> dict[str, Any]:
        """SMART / health information (NVMe log page 0x02 analogue).

        Aggregates FTL and media health the way a real drive's SMART log
        does — the monitoring surface fleet operators scrape.  FTL counts
        come from the backend's one snapshot (``stats()``); a zoned backend
        has no patrol scrubber, so it reports no scrub refreshes.
        """
        flash = self.ftl.flash
        pe = flash.pe_cycles
        rated = flash.error_model.pe_rated
        stats = self.ftl.stats()
        return {
            "media_errors": stats["uncorrectable_reads"],
            "data_units_read": flash.stats.bytes_read // 512000 or 0,
            "data_units_written": flash.stats.bytes_programmed // 512000 or 0,
            "host_reads": stats["host_reads"],
            "host_writes": stats["host_writes"],
            "write_amplification": stats["write_amplification"],
            "percentage_used": min(100, int(100 * float(pe.mean()) / rated)),
            "max_pe_cycles": int(pe.max()),
            "available_spare": stats["free_blocks"],
            "bad_blocks": stats["bad_blocks"],
            "gc_collections": stats["gc_collections"],
            "scrub_refreshes": stats.get("scrub_refreshes", 0),
            "latency": self.latency_stats(),
        }

    def identify(self) -> dict[str, Any]:
        """IDENTIFY controller/namespace data."""
        return {
            "model": self.name,
            "capacity_bytes": self.ftl.logical_capacity_bytes,
            "logical_pages": self.ftl.logical_pages,
            "page_size": self.ftl.page_size,
            "queue_pairs": len(self.queues),
            "isc_capable": self._isc_handler is not None,
        }
