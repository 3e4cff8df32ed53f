"""Datacenter fleet: many storage nodes, one coordinator.

The paper's closing scaling argument: "Considering a data center containing
hundreds of CompStor equipped storage nodes, there could be thousands of
concurrent minions, resulting in heavy parallelism at the storage unit
level."  :class:`StorageFleet` builds that two-level topology — a
coordinator fanning jobs out to per-node in-situ clients, each fanning out
to its local devices — inside one simulation.

At that scale device failure is routine, so the fleet also owns the
recovery story: :meth:`stage_corpus` can place ``replicas`` copies of each
book on consecutive devices of the fleet-wide ring, and :meth:`run_job`
degrades instead of raising — minions that die with their device are
rerouted to surviving replicas (or, as a last resort, executed host-side
when a host holds the data), and the returned :class:`JobReport` accounts
for every minion: ``completed + recovered + lost == dispatched``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, Sequence

from repro.cluster.node import StorageNode
from repro.faults.retry import CircuitBreaker
from repro.host.insitu import InSituError
from repro.obs.health import FleetHealth, HealthAggregator
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.proto.entities import Command, Response, ResponseStatus
from repro.sim import Simulator
from repro.workloads import BookFile, partition_round_robin

__all__ = ["JobReport", "StorageFleet"]


@dataclass(slots=True)
class JobReport:
    """Degraded-mode accounting for one :meth:`StorageFleet.run_job`.

    ``responses`` is aligned with dispatch order; a ``None`` slot is a lost
    minion (no surviving replica, no host copy).  Unpacking as
    ``responses, wall = fleet.run_job(...)`` keeps working — the report
    iterates as the historical 2-tuple.
    """

    responses: list[Response | None]
    wall_seconds: float
    dispatched: int
    completed: int  # answered by their primary placement
    recovered: int  # answered by a surviving replica or the host
    lost: tuple[str, ...] = ()  # book names with no surviving copy
    retries: int = 0  # client-level resends during this job
    failovers: int = 0  # minions rerouted to a replica device
    host_fallbacks: int = 0  # minions executed host-side

    def __iter__(self) -> Iterator[Any]:
        return iter((self.responses, self.wall_seconds))

    @property
    def accounted(self) -> int:
        return self.completed + self.recovered + len(self.lost)

    @property
    def degraded(self) -> bool:
        return self.recovered > 0 or bool(self.lost) or self.retries > 0

    def rows(self) -> list[list[Any]]:
        """``[attribute, value]`` rows for table rendering."""
        return [
            ["dispatched", self.dispatched],
            ["completed (primary)", self.completed],
            ["recovered (failover)", self.recovered],
            ["lost", len(self.lost)],
            ["retries", self.retries],
            ["replica failovers", self.failovers],
            ["host fallbacks", self.host_fallbacks],
            ["wall clock", f"{self.wall_seconds * 1e3:.3f} ms"],
        ]


class StorageFleet:
    """A rack/row of storage nodes under one job coordinator."""

    def __init__(
        self,
        sim: Simulator,
        nodes: list[StorageNode],
        metrics: MetricsRegistry | None = None,
    ):
        if not nodes:
            raise ValueError("a fleet needs at least one node")
        self.sim = sim
        self.nodes = nodes
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: book name -> ordered replica targets (primary first)
        self._replica_map: dict[str, list[tuple[int, str]]] = {}
        #: minions rerouted to a surviving replica, by the replica's device
        self.failovers_by_device: Counter[str] = Counter()
        #: minions lost with no surviving copy, by book
        self.lost_by_book: Counter[str] = Counter()
        self.host_fallbacks_total = 0
        self.recovered_total = 0
        m = self.metrics
        m.counter_view("cluster.failovers", "minions rerouted to a surviving replica",
                       lambda: self.failovers_by_device, keys=("device",))
        m.counter_view("cluster.host_fallbacks",
                       "minions executed host-side (no replica survived)",
                       lambda: self.host_fallbacks_total)
        m.counter_view("cluster.minions.lost",
                       "minions lost with no surviving copy of their data",
                       lambda: self.lost_by_book, keys=("book",))

    @property
    def failovers_total(self) -> int:
        return sum(self.failovers_by_device.values())

    @property
    def lost_total(self) -> int:
        return sum(self.lost_by_book.values())

    # -- topology -----------------------------------------------------------
    @property
    def total_devices(self) -> int:
        return sum(len(node.compstors) for node in self.nodes)

    def device_ring(self) -> list[tuple[int, str]]:
        """Every device as ``(node_index, device_name)``, in fleet order.

        Consecutive ring positions host consecutive replicas, so one dead
        device never takes both copies of a book with ``replicas >= 2``.
        """
        return [
            (node_index, ssd.name)
            for node_index, node in enumerate(self.nodes)
            for ssd in node.compstors
        ]

    def _ssd(self, node_index: int, device: str):
        return next(s for s in self.nodes[node_index].compstors if s.name == device)

    def describe(self) -> dict:
        return {
            "nodes": len(self.nodes),
            "devices": self.total_devices,
            "capacity_bytes": sum(
                ssd.capacity_bytes for node in self.nodes for ssd in node.compstors
            ),
        }

    # -- dataset ------------------------------------------------------------
    def stage_corpus(
        self,
        books: Sequence[BookFile],
        compressed: bool = False,
        replicas: int = 1,
    ) -> Generator:
        """Scatter books round-robin over nodes (each node scatters over its
        devices); all staging runs concurrently.

        ``replicas=k`` additionally writes each book to the ``k-1`` devices
        following its primary on the fleet-wide :meth:`device_ring`, and
        records the replica chains :meth:`run_job` reroutes along.

        Staging is additive: chains recorded by earlier :meth:`stage_corpus`
        calls survive, so a fleet can hold several corpora and still fail
        over books from any of them.  Restaging a book updates its chain.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        ring = self.device_ring()
        if replicas > len(ring):
            raise ValueError(f"replicas={replicas} exceeds {len(ring)} devices")
        placement = self.placement(books)
        ring_index = {target: i for i, target in enumerate(ring)}
        for target, dev_books in placement.items():
            base = ring_index[target]
            chain = [ring[(base + j) % len(ring)] for j in range(replicas)]
            for book in dev_books:
                self._replica_map[book.name] = chain
        if replicas == 1:
            # the historical single-copy path, bit-identical schedules
            parts = partition_round_robin(list(books), len(self.nodes))
            procs = [
                self.sim.process(node.stage_corpus(part, compressed=compressed))
                for node, part in zip(self.nodes, parts)
            ]
            yield self.sim.all_of(procs)
            return None
        per_device: dict[tuple[int, str], list[BookFile]] = {}
        for target, dev_books in sorted(placement.items()):
            base = ring_index[target]
            for j in range(replicas):
                replica_target = ring[(base + j) % len(ring)]
                per_device.setdefault(replica_target, []).extend(dev_books)
        procs = [
            self.sim.process(
                StorageNode._stage_books(self._ssd(ni, device).fs, dev_books, compressed),
                name=f"stage->n{ni}.{device}",
            )
            for (ni, device), dev_books in sorted(per_device.items())
        ]
        yield self.sim.all_of(procs)
        return None

    def placement(self, books: Sequence[BookFile]) -> dict[tuple[int, str], list[BookFile]]:
        """(node index, device name) -> books, matching :meth:`stage_corpus`."""
        out: dict[tuple[int, str], list[BookFile]] = {}
        parts = partition_round_robin(list(books), len(self.nodes))
        for node_index, (node, part) in enumerate(zip(self.nodes, parts)):
            for device, dev_books in node.device_books(part).items():
                out[(node_index, device)] = dev_books
        return out

    def replica_targets(self, book_name: str) -> list[tuple[int, str]]:
        """Replica chain recorded at staging time (primary first)."""
        return list(self._replica_map.get(book_name, []))

    # -- jobs ----------------------------------------------------------------
    def run_job(
        self,
        books: Sequence[BookFile],
        command_for: Callable[[BookFile], Command],
    ) -> Generator:
        """One minion per book, everywhere at once — surviving failures.

        Every failed delivery (dead device, open breaker, retry budget
        exhausted) is retried against the book's surviving replicas, then
        against a host that holds the data; only then is the minion counted
        lost.  Returns a :class:`JobReport` (iterates as the historical
        ``(responses, wall_seconds)`` pair).
        """
        start = self.sim.now
        retries_before = sum(node.client.retries for node in self.nodes)
        ordered_placement = sorted(self.placement(books).items())
        per_node_assignments: list[list[tuple[str, Command]]] = []
        flat_meta: list[tuple[int, str, BookFile]] = []
        for (node_index, device), dev_books in ordered_placement:
            while len(per_node_assignments) <= node_index:
                per_node_assignments.append([])
            per_node_assignments[node_index].extend(
                (device, command_for(book)) for book in dev_books
            )
            flat_meta.extend((node_index, device, book) for book in dev_books)
        procs = [
            self.sim.process(node.client.gather(assignments, return_exceptions=True))
            for node, assignments in zip(self.nodes, per_node_assignments)
            if assignments
        ]
        results = yield self.sim.all_of(procs)
        outcomes = [r for proc in procs for r in results[proc]]

        responses: list[Response | None] = []
        completed = 0
        failed: list[tuple[int, tuple[int, str, BookFile]]] = []
        for slot, (outcome, meta) in enumerate(zip(outcomes, flat_meta)):
            if isinstance(outcome, InSituError):
                responses.append(None)
                failed.append((slot, meta))
            else:
                responses.append(outcome)
                completed += 1

        recovered = 0
        failovers = 0
        host_fallbacks = 0
        lost: list[str] = []
        if failed:
            fprocs = [
                self.sim.process(
                    self._failover_one(node_index, device, book, command_for),
                    name=f"failover->{book.name}",
                )
                for _, (node_index, device, book) in failed
            ]
            fresults = yield self.sim.all_of(fprocs)
            for (slot, (_, _, book)), proc in zip(failed, fprocs):
                response = fresults[proc]
                if response is None:
                    lost.append(book.name)
                    self.lost_by_book[book.name] += 1
                    continue
                responses[slot] = response
                recovered += 1
                if response.device == "host":
                    host_fallbacks += 1
                else:
                    failovers += 1
                    self.failovers_by_device[response.device] += 1

        self.host_fallbacks_total += host_fallbacks
        self.recovered_total += recovered
        report = JobReport(
            responses=responses,
            wall_seconds=self.sim.now - start,
            dispatched=len(flat_meta),
            completed=completed,
            recovered=recovered,
            lost=tuple(lost),
            retries=sum(node.client.retries for node in self.nodes) - retries_before,
            failovers=failovers,
            host_fallbacks=host_fallbacks,
        )
        assert report.accounted == report.dispatched, "minion accounting must close"
        return report

    def serve_one(self, book: BookFile, command: Command) -> Generator:
        """Serve one request against ``book``'s primary placement.

        The single-request twin of :meth:`run_job`, built for the service
        frontend: primary delivery first, then the book's surviving
        replicas, then a host that holds the data.  Returns
        ``(response, path)`` with ``path`` one of ``"primary"``,
        ``"failover"``, ``"host"`` — or ``(None, "lost")`` when no copy
        survives.  Recovery counters and metrics update exactly as for a
        job-level reroute, so ``health()`` sees served traffic too.
        """
        chain = self._replica_map.get(book.name)
        if not chain:
            raise ValueError(f"book {book.name!r} was never staged on this fleet")
        node_index, device = chain[0]
        client = self.nodes[node_index].client
        try:
            minion = yield from client.send_minion(device, command)
        except InSituError:
            pass
        else:
            return minion.response, "primary"
        response = yield from self._failover_one(
            node_index, device, book, lambda _b: command
        )
        if response is None:
            self.lost_by_book[book.name] += 1
            return None, "lost"
        self.recovered_total += 1
        if response.device == "host":
            self.host_fallbacks_total += 1
            return response, "host"
        self.failovers_by_device[response.device] += 1
        return response, "failover"

    def _failover_one(
        self,
        failed_node: int,
        failed_device: str,
        book: BookFile,
        command_for: Callable[[BookFile], Command],
    ) -> Generator:
        """Reroute one failed minion: surviving replicas, then the host."""
        for target in self._replica_map.get(book.name, []):
            if target == (failed_node, failed_device):
                continue
            node_index, device = target
            client = self.nodes[node_index].client
            faults = self._ssd(node_index, device).controller.faults
            if faults is not None and faults.crashed:
                continue  # known-dead replica: skip without wire traffic
            if client.breaker_state(device) == CircuitBreaker.OPEN:
                continue  # fenced off: the breaker says don't bother
            try:
                minion = yield from client.send_minion(device, command_for(book))
            except InSituError:
                continue
            return minion.response
        response = yield from self._host_fallback(book, command_for(book))
        return response

    def _host_fallback(self, book: BookFile, command: Command) -> Generator:
        """Execute the command on a host that holds the data, or give up.

        The paper's host-side baseline doubles as the degraded path: when
        no replica survives, a node whose host OS has the input files runs
        the command over the wire the conventional way.
        """
        needed = command.input_files if command.input_files else (book.name,)
        for node in self.nodes:
            os_ = node.host.os
            if os_ is None or any(not os_.fs.exists(f) for f in needed):
                continue
            try:
                if command.script:
                    results = yield from os_.run_script(command.script)
                    status = results[-1][1] if results else None
                else:
                    status, _ = yield from os_.run(command.command_line)
            except Exception:
                continue  # host execution failed; try another node
            if status is None:
                continue
            kind = ResponseStatus.OK if status.code == 0 else ResponseStatus.APP_ERROR
            return Response(
                status=kind,
                exit_code=status.code,
                stdout=status.stdout,
                detail=dict(status.detail),
                device="host",
            )
        return None

    # -- observability --------------------------------------------------------
    def telemetry(self, return_exceptions: bool = False) -> Generator:
        """Status of every device in the fleet, concurrently.

        With ``return_exceptions=True`` unreachable devices report their
        :class:`InSituError` instead of killing the poll.
        """
        procs = [
            self.sim.process(node.client.status_all(return_exceptions=return_exceptions))
            for node in self.nodes
        ]
        results = yield self.sim.all_of(procs)
        merged = {}
        for node_index, proc in enumerate(procs):
            for device, snap in results[proc].items():
                merged[(node_index, device)] = snap
        return merged

    def breakers_open(self) -> tuple[str, ...]:
        """``node<i>/<device>`` tags for every non-closed circuit breaker."""
        return tuple(
            f"node{node_index}/{device}"
            for node_index, node in enumerate(self.nodes)
            for device, state in sorted(node.client.breaker_states().items())
            if state != CircuitBreaker.CLOSED
        )

    def health(self, aggregator: HealthAggregator | None = None) -> Generator:
        """Poll every device and roll the fleet up into one report.

        Telemetry queries travel the ISC wire concurrently (they cost
        simulated time like any admin command); SMART pages are read
        straight off each controller.  Devices that don't answer — crashed,
        mid-recovery — are reported as unreachable rather than failing the
        poll, and fleet-level recovery counters (retries, failovers, lost
        minions, open breakers) are folded in, so degraded operation is
        visible in one place.

        Returns the :class:`FleetHealth` summary.
        """
        aggregator = aggregator if aggregator is not None else HealthAggregator()
        snapshots = yield from self.telemetry(return_exceptions=True)
        for (node_index, device), snap in sorted(snapshots.items()):
            if isinstance(snap, Exception):
                aggregator.observe_unreachable(node_index, device)
                continue
            ssd = self._ssd(node_index, device)
            aggregator.observe_device(
                node_index, device, snap, smart=ssd.controller.smart_log()
            )
        aggregator.observe_recovery(
            retries=sum(node.client.retries for node in self.nodes),
            failovers=self.failovers_total,
            host_fallbacks=self.host_fallbacks_total,
            lost_minions=self.lost_total,
            breakers_open=self.breakers_open(),
        )
        if self.metrics.enabled and "client.minion.round_trip_seconds" in self.metrics:
            aggregator.observe_latency_histogram(
                self.metrics["client.minion.round_trip_seconds"]
            )
        return aggregator.summary()

    def total_minions_served(self) -> int:
        return sum(ssd.agent.minions_served for node in self.nodes for ssd in node.compstors)
