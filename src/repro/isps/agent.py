"""The ISPS agent daemon.

"A daemon running on CompStor which is responsible for receiving minions
from clients and spawning in-storage processes based on the command inside
the received minions.  The daemon populates the response fields of the
minion and sends it back to the client after task completion."

The agent registers itself as the NVMe controller's ISC handler, so minions
and queries arrive through the same wire as storage traffic — but execute on
the ISPS's own cores.  Each NVMe worker invocation runs independently, so
several concurrent minions naturally share the quad-A53 through the OS
scheduler.

Trace kinds emitted per minion reproduce the paper's Table III lifetime:
``minion.received`` (step 2), ``minion.spawned`` (2), the driver's flash
traffic (3-4), ``minion.tracked`` (5), ``minion.responded`` (6).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Generator

from repro.faults.state import FAULT_CAUSE_PREFIX, AgentUnavailable
from repro.isos.process import ProcessState
from repro.isps.subsystem import InSituProcessingSubsystem
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.spans import Span, continue_trace
from repro.sim.core import Interrupt
from repro.isps.telemetry import TelemetrySnapshot
from repro.nvme.commands import Opcode
from repro.proto.entities import Minion, Query, QueryKind, Response, ResponseStatus
from repro.sim import Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["IspsAgent"]


class IspsAgent:
    """Receives minions/queries, spawns processes, returns responses."""

    def __init__(
        self,
        sim: Simulator,
        isps: InSituProcessingSubsystem,
        device_name: str = "compstor",
        tracer: Tracer | None = None,
        track_interval: float = 10e-3,
        metrics: MetricsRegistry | None = None,
    ):
        self.sim = sim
        self.isps = isps
        self.device_name = device_name
        self._component = f"{device_name}.agent"
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.track_interval = track_interval
        #: minions served, by response status
        self.minion_statuses: Counter[ResponseStatus] = Counter()
        #: admin queries served, by kind value
        self.queries: Counter[str] = Counter()
        self.active_minions = 0
        self.watchdog_kills = 0
        #: Fault hook (``repro.faults.AgentFaultState``), installed lazily
        #: by a FaultInjector; ``None`` costs one attribute test per dispatch.
        self.faults = None
        self.metrics = metrics if metrics is not None else NULL_METRICS
        m = self.metrics
        m.counter_view(
            "isps.minions", "minions served by the agent, by response status",
            lambda: {status.value: n for status, n in self.minion_statuses.items()},
            keys=("status",), device=device_name,
        )
        m.gauge_view("isps.minions.active", "minions currently executing on the device",
                     lambda: self.active_minions, device=device_name)
        m.counter_view("isps.watchdog.kills", "runaway minions killed by the agent watchdog",
                       lambda: self.watchdog_kills, device=device_name)
        m.counter_view("isps.queries", "admin queries served, by kind",
                       lambda: self.queries, keys=("kind",), device=device_name)
        self._m_queue_wait = m.histogram(
            "isps.minion.queue_wait_seconds",
            "client-send to in-situ execution start (transport + agent queueing)",
        )
        self._m_exec = m.histogram(
            "isps.minion.exec_seconds", "in-situ execution time per minion"
        )

    @property
    def minions_served(self) -> int:
        return sum(self.minion_statuses.values())

    @property
    def minions_aborted(self) -> int:
        """Minions killed by a device or agent crash (retryable)."""
        return self.minion_statuses.get(ResponseStatus.ABORTED, 0)

    # -- NVMe ISC dispatch ---------------------------------------------------
    def handle(self, opcode: Opcode, body: Any) -> Generator:
        """Entry point registered with :meth:`NvmeController.register_isc_handler`."""
        if self.faults is not None and self.faults.down:
            # daemon dead: the controller converts this into ISC_AGENT_DOWN
            raise AgentUnavailable(f"{self.device_name}: agent daemon is down")
        if opcode == Opcode.ISC_MINION:
            if not isinstance(body, Minion):
                raise TypeError(f"ISC_MINION payload must be a Minion, got {type(body)}")
            result = yield from self._serve_minion(body)
            return result
        if opcode == Opcode.ISC_QUERY:
            if not isinstance(body, Query):
                raise TypeError(f"ISC_QUERY payload must be a Query, got {type(body)}")
            result = yield from self._serve_query(body)
            return result
        if opcode == Opcode.ISC_LOAD:
            result = yield from self._serve_load(body)
            return result
        raise ValueError(f"agent cannot handle opcode {opcode!r}")

    # -- minions -----------------------------------------------------------
    def _serve_minion(self, minion: Minion) -> Generator:
        command = minion.command
        component = self._component
        # Observability hooks cost one attribute check each when off (the
        # default for large sweeps); all emit/metric calls sit behind them.
        traced = self.tracer.enabled
        observed = self.metrics.enabled
        # Table III steps 2-6 live under one agent span when the minion
        # carries a span context (its parent is the NVMe transport hop).
        span = None
        if minion.span is not None and traced:
            span = continue_trace(
                self.tracer, self.sim, "agent.execute", component, minion.span
            )
            span.event("minion.received", minion=minion.minion_id)
        if traced:
            self.tracer.emit(
                self.sim.now, component, "minion.received",
                minion=minion.minion_id, command=command.command_line or "<script>",
            )
        self.active_minions += 1
        started = self.sim.now
        if observed:
            self._m_queue_wait.observe(
                started - minion.created_at, device=self.device_name
            )
        try:
            response = yield from self._execute(minion, span)
        finally:
            self.active_minions -= 1
        response.execution_seconds = self.sim.now - started
        response.device = self.device_name
        minion.response = response
        minion.completed_at = self.sim.now
        self.minion_statuses[response.status] += 1
        if observed:
            self._m_exec.observe(response.execution_seconds, device=self.device_name)
        if traced:
            self.tracer.emit(
                self.sim.now, component, "minion.responded",
                minion=minion.minion_id, status=response.status.value,
            )
        if span is not None:
            span.event(
                "minion.responded", minion=minion.minion_id,
                status=response.status.value,
            )
            span.end()
        return minion

    def _execute(self, minion: Minion, span: Span | None = None) -> Generator:
        command = minion.command
        os_ = self.isps.os
        # validate the data contract before spawning
        missing = [f for f in command.input_files if not os_.fs.exists(f)]
        if missing:
            return Response(
                status=ResponseStatus.REJECTED,
                exit_code=-1,
                stdout=f"missing input files: {missing}".encode(),
            )
        exec_span = None
        try:
            if command.script:
                process = None
                if span is not None:
                    exec_span = span.child("exec.script")
                results = yield from os_.run_script(
                    command.script, priority=command.priority
                )
                status = results[-1][1] if results else None
                exit_code = status.code if status else -1
                stdout = status.stdout if status else b""
                detail = dict(status.detail) if status else {}
                detail["script_steps"] = len(results)
            else:
                process = os_.spawn(command.command_line, priority=command.priority)
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.sim.now, self._component, "minion.spawned",
                        minion=minion.minion_id, pid=process.pid,
                    )
                if span is not None:
                    # Table III steps 3-4 (driver + flash traffic) happen
                    # inside this window; the span-tree builder adopts the
                    # flash trace records into it.
                    exec_span = span.child("exec.process")
                    exec_span.event(
                        "minion.spawned", minion=minion.minion_id, pid=process.pid
                    )
                self.sim.process(
                    self._track(minion, process, span), name="agent.tracker"
                )
                if command.timeout_seconds > 0:
                    self.sim.process(
                        self._watchdog(os_, process.pid, command.timeout_seconds),
                        name="agent.watchdog",
                    )
                status = yield from os_.wait(process)
                exit_code = status.code
                stdout = status.stdout
                detail = dict(status.detail)
        except KeyError as exc:
            return Response(
                status=ResponseStatus.REJECTED, exit_code=-1, stdout=str(exc).encode()
            )
        except Interrupt as exc:
            cause = str(exc.cause or "")
            if cause.startswith(FAULT_CAUSE_PREFIX):
                # infrastructure death (device/agent crash), not a verdict on
                # the minion itself — retryable, unlike the watchdog kill
                return Response(
                    status=ResponseStatus.ABORTED, exit_code=-1, stdout=cause.encode()
                )
            return Response(
                status=ResponseStatus.TIMEOUT,
                exit_code=-1,
                stdout=f"killed after {command.timeout_seconds}s".encode(),
            )
        except Exception as exc:  # executable crashed
            return Response(
                status=ResponseStatus.CRASHED, exit_code=-1, stdout=repr(exc).encode()
            )
        finally:
            if exec_span is not None:
                exec_span.end()
        status_kind = ResponseStatus.OK if exit_code == 0 else ResponseStatus.APP_ERROR
        return Response(
            status=status_kind, exit_code=exit_code, stdout=stdout, detail=detail
        )

    def _watchdog(self, os_, pid: int, timeout_seconds: float) -> Generator:
        """Kill a runaway task: SIGKILL (``os_.kill``) into its process.

        The deadline is a daemon timer, so it does not hold the simulation
        open past a minion that finished early; while the minion runs, the
        tracker's polls keep the run live until the deadline fires.  It
        holds the pid, not the process, so a minion that exits early is
        freed at once; at the deadline ``kill`` finds a finished pid gone
        from the process table and does nothing."""
        yield self.sim.timeout(timeout_seconds, daemon=True)
        if os_.kill(pid, "agent watchdog timeout"):
            self.watchdog_kills += 1
        return None

    def _track(self, minion: Minion, process, span: Span | None = None) -> Generator:
        """Step 5 of Table III: the agent keeps track of in-situ status."""
        while process.state == ProcessState.RUNNING:
            if self.tracer.enabled or span is not None:
                # utilization() is a pure read — skip the arithmetic when
                # nobody records the sample (the poll timeout still runs,
                # keeping the event schedule identical either way)
                utilization = self.isps.cluster.utilization()
                self.tracer.emit(
                    self.sim.now, self._component, "minion.tracked",
                    minion=minion.minion_id, pid=process.pid,
                    utilization=utilization,
                )
                if span is not None:
                    span.event(
                        "minion.tracked", minion=minion.minion_id, pid=process.pid,
                        utilization=utilization,
                    )
            yield self.sim.timeout(self.track_interval)
        return None

    # -- queries -----------------------------------------------------------
    def _serve_query(self, query: Query) -> Generator:
        yield self.sim.timeout(50e-6)  # agent wakeup + admin handling
        if query.kind == QueryKind.STATUS:
            query.reply = self.telemetry()
        elif query.kind == QueryKind.LIST_EXECUTABLES:
            query.reply = self.isps.os.registry.installed()
        elif query.kind == QueryKind.LIST_FILES:
            query.reply = self.isps.os.fs.listdir()
        elif query.kind == QueryKind.PING:
            query.reply = "pong"
        elif query.kind == QueryKind.LOAD_EXECUTABLE:
            self.isps.os.install_executable(query.payload)
            query.reply = f"loaded {query.payload.name}"
        else:  # pragma: no cover - exhaustive over QueryKind
            raise ValueError(f"unknown query kind {query.kind}")
        self.queries[query.kind.value] += 1
        return query

    def _serve_load(self, executable) -> Generator:
        yield self.sim.timeout(200e-6)  # image transfer/installation overhead
        self.isps.os.install_executable(executable)
        return f"loaded {executable.name}"

    def telemetry(self) -> TelemetrySnapshot:
        os_ = self.isps.os
        return TelemetrySnapshot(
            device=self.device_name,
            time=self.sim.now,
            core_utilization=os_.utilization(),
            temperature_c=os_.temperature_c(),
            running_processes=os_.running_processes(),
            active_minions=self.active_minions,
            uptime=os_.uptime(),
            free_bytes=os_.fs.free_bytes,
            watchdog_kills=self.watchdog_kills,
            minions_aborted=self.minions_aborted,
            agent_restarts=self.faults.restarts if self.faults is not None else 0,
        )
