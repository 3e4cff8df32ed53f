"""The in-situ library + client.

"A C/C++ library that provides high-level APIs for the client...  the
CompStor in-situ library is only intended to be used in the client, not in
the off-loadable executable, which does not need any modification."

:class:`InSituClient` is that library's API surface: it configures minions
and queries, tunnels them through NVMe vendor commands, and (because a
client may drive *several* CompStors concurrently) provides gather/map
helpers for parallel dispatch — the paper's "thousands of concurrent
minions" pattern in miniature.

At fleet scale the client is also the first line of defence against device
failure: construct it with a :class:`~repro.faults.RetryPolicy` and/or a
:class:`~repro.faults.BreakerConfig` and ``send_minion`` retries retryable
transport faults with backoff while a per-device circuit breaker fail-fasts
commands to drives that keep dying.  Both are opt-in; without them the
client behaves (and schedules) exactly as before.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Generator, Sequence

from repro.faults.retry import (
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    completion_retryable,
    response_retryable,
)
from repro.nvme import IscPayload, NvmeCommand, NvmeController, Opcode
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import start_trace
from repro.proto.entities import Command, Minion, Query, QueryKind
from repro.sim import Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["BreakerOpen", "InSituClient", "InSituError"]


class InSituError(Exception):
    """Transport-level failure delivering a minion or query."""


class BreakerOpen(InSituError):
    """Fail-fast: the target device's circuit breaker is open."""


class InSituClient:
    """Host-side controller of the in-situ processing flow (master side)."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "client",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_config: BreakerConfig | None = None,
    ):
        self.sim = sim
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.retry_policy = retry_policy
        self.breaker_config = breaker_config
        self._m_round_trip = self.metrics.histogram(
            "client.minion.round_trip_seconds", "client-observed minion round trip"
        )
        self._devices: dict[str, NvmeController] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self.minions_sent = 0
        self.queries_sent = 0
        #: minions answered without a retryable failure, by device
        self.minions_returned: Counter[str] = Counter()
        #: retries, by (device, failure status)
        self.retry_counts: Counter[tuple[str, str]] = Counter()
        m = self.metrics
        m.counter_view("client.minions", "minions answered without a retryable failure",
                       lambda: self.minions_returned, keys=("device",))
        m.counter_view("client.minion.retries", "minion retries, by device and failure status",
                       lambda: self.retry_counts, keys=("device", "status"))
        m.counter_view(
            "client.breaker.transitions", "circuit-breaker state changes, by device",
            lambda: Counter((device, state) for device, b in self._breakers.items()
                            for _, state in b.transitions),
            keys=("device", "to"),
        )
        m.counter_view(
            "client.breaker.fast_fails", "commands refused locally by an open breaker",
            lambda: {device: b.fast_fails for device, b in self._breakers.items()},
            keys=("device",),
        )

    @property
    def retries(self) -> int:
        return sum(self.retry_counts.values())

    # -- topology ------------------------------------------------------------
    def attach(self, controller: NvmeController) -> str:
        """Register a CompStor; returns its device name."""
        ident = controller.identify()
        device_name = ident["model"].removesuffix(".nvme")
        if device_name in self._devices:
            raise ValueError(f"device {device_name!r} already attached")
        if not ident["isc_capable"]:
            raise InSituError(f"device {device_name!r} has no in-situ capability")
        self._devices[device_name] = controller
        if self.breaker_config is not None:
            self._breakers[device_name] = self._make_breaker(device_name)
        return device_name

    def _make_breaker(self, device: str) -> CircuitBreaker:
        def on_transition(previous: str, state: str) -> None:
            self.tracer.emit(
                self.sim.now, self.name, "client.breaker",
                device=device, state=state,
            )

        return CircuitBreaker(self.breaker_config, on_transition=on_transition)

    def devices(self) -> list[str]:
        return sorted(self._devices)

    def breaker_state(self, device: str) -> str:
        """The device's breaker state (``"closed"`` when none configured)."""
        breaker = self._breakers.get(device)
        return breaker.state if breaker is not None else CircuitBreaker.CLOSED

    def breaker_states(self) -> dict[str, str]:
        return {device: self.breaker_state(device) for device in self.devices()}

    def _controller(self, device: str) -> NvmeController:
        try:
            return self._devices[device]
        except KeyError as exc:
            raise InSituError(f"unknown device {device!r} (attached: {self.devices()})") from exc

    # -- minions -----------------------------------------------------------
    def send_minion(self, device: str, command: Command) -> Generator:
        """Ship a command; blocks until the response returns.

        Returns the completed :class:`Minion` (response populated by the
        device, per Fig. 3).  With a retry policy configured, retryable
        transport faults (``TRANSIENT``, ``DEVICE_UNAVAILABLE``,
        ``ISC_AGENT_DOWN`` completions, ``ABORTED`` responses) are resent
        with exponential backoff until the policy's attempt/deadline budget
        runs out; genuine minion outcomes (``CRASHED``, ``TIMEOUT``, ...)
        are never retried.
        """
        controller = self._controller(device)
        minion = Minion(command=command, client=self.name, created_at=self.sim.now)
        # Table III step 1: the client configures a minion and ships it.
        # With tracing on, this opens the root span of the minion's life.
        root_span = None
        if self.tracer.enabled:
            root_span = start_trace(self.tracer, self.sim, "minion.lifetime", self.name)
            root_span.event("client.minion.sent", minion=minion.minion_id, device=device)
            minion.span = root_span.context
        self.tracer.emit(
            self.sim.now, self.name, "client.minion.sent",
            minion=minion.minion_id, device=device,
        )
        self.minions_sent += 1
        breaker = self._breakers.get(device)
        policy = self.retry_policy
        deadline = self.sim.now + policy.deadline if policy is not None else None
        attempt = 1
        # try/finally so the root span always ends — even when the queue
        # call raises or an injected fault aborts the delivery mid-flight
        # (Span.end is idempotent; failure paths end it first, with status).
        try:
            while True:
                if breaker is not None and not breaker.allow(self.sim.now):
                    if root_span is not None:
                        root_span.end(status="breaker-open")
                    raise BreakerOpen(
                        f"minion {minion.minion_id} refused: breaker open for {device!r}"
                    )
                payload = IscPayload(body=minion, nbytes=command.wire_bytes)
                completion = yield from controller.queue(0).call(
                    NvmeCommand(opcode=Opcode.ISC_MINION, payload=payload)
                )
                failure: str | None = None
                retryable = False
                returned: Minion | None = None
                if not completion.ok:
                    failure = completion.status.name
                    retryable = completion_retryable(completion.status)
                else:
                    returned = completion.result
                    response = returned.response
                    if response is not None and response_retryable(response.status):
                        failure = response.status.value
                        retryable = True
                if failure is None:
                    assert returned is not None
                    if breaker is not None:
                        breaker.record_success(self.sim.now)
                    self.tracer.emit(
                        self.sim.now, self.name, "client.minion.returned",
                        minion=returned.minion_id, device=device,
                        status=returned.response.status.value if returned.response else "?",
                    )
                    if root_span is not None:
                        root_span.event(
                            "client.minion.returned", minion=returned.minion_id, device=device
                        )
                    self.minions_returned[device] += 1
                    self._m_round_trip.observe(self.sim.now - minion.created_at, device=device)
                    return returned
                if breaker is not None:
                    breaker.record_failure(self.sim.now)
                out_of_budget = policy is None or attempt >= policy.max_attempts or (
                    deadline is not None and self.sim.now >= deadline
                )
                if not retryable or out_of_budget:
                    if root_span is not None:
                        root_span.end(status=failure)
                    raise InSituError(f"minion {minion.minion_id} failed: {failure}")
                # jitter draws only happen on this failure path, so healthy
                # runs consume nothing from the stream (schedule-neutral)
                delay = policy.backoff(attempt, self.sim.rng("client.retry"))
                if deadline is not None and self.sim.now + delay >= deadline:
                    # the backoff would sleep past the per-minion deadline:
                    # that retry is a guaranteed loss, so fail fast now
                    # instead of burning the sleep first
                    if root_span is not None:
                        root_span.end(status="TIMEOUT")
                    raise InSituError(
                        f"minion {minion.minion_id} failed: TIMEOUT "
                        f"(backoff past deadline after {failure})"
                    )
                self.retry_counts[device, failure] += 1
                self.tracer.emit(
                    self.sim.now, self.name, "client.minion.retry",
                    minion=minion.minion_id, device=device,
                    attempt=attempt, status=failure,
                )
                yield self.sim.timeout(delay)
                attempt += 1
        finally:
            if root_span is not None:
                root_span.end()

    def run(self, device: str, command_line: str = "", script: str = "", **kw) -> Generator:
        """Convenience: build the Command, send the minion, return the Response."""
        minion = yield from self.send_minion(
            device, Command(command_line=command_line, script=script, **kw)
        )
        assert minion.response is not None
        return minion.response

    def _send_collect(self, device: str, command: Command) -> Generator:
        """``send_minion`` with the error as a value instead of a raise."""
        try:
            minion = yield from self.send_minion(device, command)
        except InSituError as exc:
            return exc
        return minion.response

    def gather(
        self,
        assignments: Sequence[tuple[str, Command]],
        return_exceptions: bool = False,
    ) -> Generator:
        """Dispatch many minions concurrently; returns responses in order.

        This is the client fan-out the paper's Fig. 6/7 experiments rely on:
        one host client driving N CompStors in parallel.

        By default one failed delivery destroys the whole fan-out (the
        historical all-or-nothing contract).  With ``return_exceptions=True``
        each slot holds either the :class:`Response` or the
        :class:`InSituError` that killed it — one dead device costs only its
        own assignments, which is what fleet failover builds on.
        """
        if return_exceptions:
            procs = [
                self.sim.process(self._send_collect(device, command), name=f"minion->{device}")
                for device, command in assignments
            ]
            results = yield self.sim.all_of(procs)
            return [results[p] for p in procs]
        procs = [
            self.sim.process(self.send_minion(device, command), name=f"minion->{device}")
            for device, command in assignments
        ]
        results = yield self.sim.all_of(procs)
        minions: list[Minion] = [results[p] for p in procs]
        return [m.response for m in minions]

    # -- queries -----------------------------------------------------------
    def query(self, device: str, kind: QueryKind, payload: Any = None) -> Generator:
        """Administrative round trip; returns the reply."""
        controller = self._controller(device)
        query = Query(kind=kind, payload=payload)
        self.queries_sent += 1
        completion = yield from controller.queue(0).call(
            NvmeCommand(
                opcode=Opcode.ISC_QUERY,
                payload=IscPayload(body=query, nbytes=query.wire_bytes),
            )
        )
        if not completion.ok:
            raise InSituError(f"query {query.query_id} failed: {completion.status.name}")
        return completion.result.reply

    def status(self, device: str) -> Generator:
        reply = yield from self.query(device, QueryKind.STATUS)
        return reply

    def _status_collect(self, device: str) -> Generator:
        try:
            reply = yield from self.status(device)
        except InSituError as exc:
            return exc
        return reply

    def status_all(self, return_exceptions: bool = False) -> Generator:
        """Telemetry from every attached device, concurrently.

        With ``return_exceptions=True`` a crashed device's slot holds the
        :class:`InSituError` instead of poisoning the whole poll — fleet
        health keeps reporting while devices are down.
        """
        names = self.devices()
        if return_exceptions:
            procs = [self.sim.process(self._status_collect(name)) for name in names]
        else:
            procs = [self.sim.process(self.status(name)) for name in names]
        results = yield self.sim.all_of(procs)
        return {name: results[proc] for name, proc in zip(names, procs)}

    def load_executable(self, device: str, executable: Any) -> Generator:
        """Dynamic task loading: install a new binary on a running device."""
        controller = self._controller(device)
        completion = yield from controller.queue(0).call(
            NvmeCommand(
                opcode=Opcode.ISC_LOAD,
                payload=IscPayload(body=executable, nbytes=512 * 1024),
            )
        )
        if not completion.ok:
            raise InSituError(f"load of {executable.name!r} failed")
        return completion.result

    def load_executable_everywhere(self, executable: Any) -> Generator:
        procs = [
            self.sim.process(self.load_executable(name, executable))
            for name in self.devices()
        ]
        yield self.sim.all_of(procs)
        return None
