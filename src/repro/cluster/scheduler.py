"""Minion placement policies.

With many CompStors per node and many concurrent minions, the client must
decide *where* each task runs.  The paper points at telemetry queries
("ARM cores utilization, or temperature... could be used for load
balancing"); we provide two policies and a dispatcher that measures the
difference (the load-balancing ablation bench):

- :class:`RoundRobinBalancer` — oblivious rotation;
- :class:`LeastLoadedBalancer` — queries STATUS and picks the device with
  the lowest load score.

Data-local tasks (a command scanning a file) must run where the file lives;
balancers only place *placeable* work (generation, aggregation, anything
whose inputs are replicated).
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.host.insitu import InSituClient
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.proto.entities import Command

__all__ = ["LeastLoadedBalancer", "MinionDispatcher", "RoundRobinBalancer"]


class RoundRobinBalancer:
    """Rotate through devices regardless of their load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, client: InSituClient) -> Generator:
        devices = client.devices()
        if not devices:
            raise ValueError("no devices attached")
        choice = devices[self._next % len(devices)]
        self._next += 1
        return choice
        yield  # pragma: no cover - generator protocol


class LeastLoadedBalancer:
    """Query telemetry and pick the least-loaded device.

    Health-aware: crashed devices (no telemetry answer) and devices fenced
    off by an open circuit breaker are excluded, and the load score itself
    penalises devices with a history of killed/aborted minions — degraded
    hardware stops winning placements.
    """

    name = "least-loaded"

    def pick(self, client: InSituClient) -> Generator:
        statuses = yield from client.status_all(return_exceptions=True)
        if not statuses:
            raise ValueError("no devices attached")
        usable = {
            name: snap
            for name, snap in statuses.items()
            if not isinstance(snap, Exception)
            and client.breaker_state(name) != "open"
        }
        if not usable:
            raise ValueError("no reachable devices (all crashed or fenced off)")
        # Ties on load score break by stable attachment order, not name:
        # lexicographic order would put "compstor10" before "compstor2",
        # making fairness results depend on how devices happen to be named.
        order = {name: i for i, name in enumerate(client.devices())}
        return min(usable, key=lambda name: (usable[name].load_score(), order[name]))


class MinionDispatcher:
    """Runs a stream of commands across devices under a placement policy."""

    def __init__(
        self,
        client: InSituClient,
        balancer,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.client = client
        self.balancer = balancer
        self.placements: list[tuple[str, str]] = []  # (device, command)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._m_placements = self.metrics.counter(
            "cluster.placements", "placement decisions, by device and policy"
        )

    def submit_all(
        self, commands: Sequence[Command], return_exceptions: bool = False
    ) -> Generator:
        """Place and launch every command concurrently; gather responses.

        Placement decisions are made sequentially (telemetry queries are
        cheap) but execution overlaps.  With ``return_exceptions=True``
        each failed delivery yields its :class:`InSituError` in-slot
        instead of destroying the batch.
        """
        procs = []
        for command in commands:
            device = yield from self.balancer.pick(self.client)
            self.placements.append((device, command.command_line or "<script>"))
            if self.metrics.enabled:
                self._m_placements.inc(device=device, policy=self.balancer.name)
            body = (
                self.client._send_collect(device, command)
                if return_exceptions
                else self.client.send_minion(device, command)
            )
            procs.append(self.client.sim.process(body, name=f"dispatch->{device}"))
        results = yield self.client.sim.all_of(procs)
        if return_exceptions:
            return [results[p] for p in procs]
        minions = [results[p] for p in procs]
        return [m.response for m in minions]

    def device_share(self) -> dict[str, int]:
        """How many commands each device received."""
        counts: dict[str, int] = {}
        for device, _ in self.placements:
            counts[device] = counts.get(device, 0) + 1
        return counts
