"""The OS facade: spawn, wait, ps, telemetry.

:class:`EmbeddedOS` is used twice in the CompStor model: as the ISPS's
embedded Linux (over a :class:`~repro.isos.blockdev.FlashAccessDevice`) and
as the host's Ubuntu (over an NVMe block device).  Identical semantics on
both sides is the point — an executable does not know where it runs.

``process_table`` lists live processes only: a process removes its own
entry when it exits or fails, after recording its outcome on its
:class:`~repro.isos.process.OsProcess`.  Whoever holds that record (the
ISPS agent's handler, tracker and watchdog; callers of :meth:`run` and
:meth:`run_script`) still reads the outcome from it, and once the last
holder lets go the record, its simulation process and its exit status are
freed, so a long-running service holds memory for its live processes, not
for every request it has served.
"""

from __future__ import annotations

from typing import Generator

from repro.cpu.core import CpuCluster
from repro.cpu.scheduler import RunQueue
from repro.isos.filesystem import ExtentFileSystem
from repro.isos.loader import ExecContext, Executable, ExecutableRegistry, ExitStatus
from repro.isos.process import OsProcess, ProcessState
from repro.isos.shell import split_pipeline, split_script
from repro.sim import Simulator, Tracer
from repro.sim.trace import NULL_TRACER

__all__ = ["EmbeddedOS"]


class EmbeddedOS:
    """Process management over a CPU cluster + filesystem + registry.

    Parameters
    ----------
    isa:
        Cost-table key propagated into every :class:`ExecContext`
        (``"arm-a53"`` for the ISPS, ``"xeon"`` for the host).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: CpuCluster,
        fs: ExtentFileSystem,
        registry: ExecutableRegistry,
        isa: str,
        name: str = "os",
        quantum: float = 4e-3,
        spawn_latency: float = 300e-6,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.fs = fs
        self.registry = registry
        self.isa = isa
        self.name = name
        self.runq = RunQueue(sim, cluster, quantum=quantum)
        self.spawn_latency = spawn_latency
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.process_table: dict[int, OsProcess] = {}
        self.booted_at = sim.now

    # -- process lifecycle ---------------------------------------------------
    def spawn(self, command_line: str, priority: int = 0) -> OsProcess:
        """fork+exec a command line (may be a pipeline)."""
        stages = split_pipeline(command_line)  # validates syntax eagerly
        for argv in stages:
            self.registry.resolve(argv[0])  # fail fast on unknown binaries

        holder: list[OsProcess] = []

        def body() -> Generator:
            entry = holder[0]
            try:
                yield self.sim.timeout(self.spawn_latency)  # fork/exec/page-in
                stdin: bytes | None = None
                status = ExitStatus()
                for argv in stages:
                    exe = self.registry.instantiate(argv[0])
                    ctx = ExecContext(
                        self.sim,
                        self.fs,
                        self.runq,
                        isa=self.isa,
                        args=argv[1:],
                        stdin=stdin,
                        priority=priority,
                    )
                    status = yield from exe.run(ctx)
                    if not isinstance(status, ExitStatus):
                        raise TypeError(
                            f"{exe.name} returned {status!r}, expected ExitStatus"
                        )
                    if status.code != 0:
                        break  # pipeline aborts on failure (pipefail semantics)
                    stdin = status.stdout
            except BaseException as exc:
                entry.state = ProcessState.FAILED
                entry.error = exc
                raise
            else:
                entry.state = ProcessState.EXITED
                entry.exit_status = status
                return status
            finally:
                entry.finished_at = self.sim.now
                del self.process_table[entry.pid]

        sim_proc = self.sim.process(body(), name=f"{self.name}.{stages[0][0]}")
        entry = OsProcess(command=command_line, sim_process=sim_proc, started_at=self.sim.now)
        holder.append(entry)
        self.process_table[entry.pid] = entry
        self.tracer.emit(self.sim.now, self.name, "os.spawn", pid=entry.pid, command=command_line)
        return entry

    def wait(self, process: OsProcess) -> Generator:
        """Block until a process exits; returns its :class:`ExitStatus`."""
        status = yield process.sim_process
        return status

    def kill(self, pid: int, reason: str = "killed") -> bool:
        """SIGKILL: interrupt a running process.  Returns False if the pid
        is unknown or already dead (a dead process has left the table).
        The victim's waiters see the :class:`~repro.sim.core.Interrupt`
        raised out of :meth:`wait`."""
        entry = self.process_table.get(pid)
        if entry is None:
            return False
        entry.sim_process.interrupt(reason)
        self.tracer.emit(self.sim.now, self.name, "os.kill", pid=pid, reason=reason)
        return True

    def run(self, command_line: str, priority: int = 0) -> Generator:
        """spawn + wait convenience; returns ``(ExitStatus, OsProcess)``."""
        process = self.spawn(command_line, priority=priority)
        status = yield from self.wait(process)
        return status, process

    def run_script(self, script: str, priority: int = 0) -> Generator:
        """Execute a multi-line shell script sequentially (stop on failure)."""
        results = []
        for line in split_script(script):
            status, process = yield from self.run(line, priority=priority)
            results.append((line, status, process))
            if status.code != 0:
                break
        return results

    # -- introspection / telemetry ----------------------------------------------
    def running_processes(self) -> int:
        return len(self.process_table)

    def uptime(self) -> float:
        return self.sim.now - self.booted_at

    def utilization(self) -> float:
        return self.cluster.utilization()

    def temperature_c(self) -> float:
        return self.cluster.temperature_c()

    def install_executable(self, executable: Executable) -> None:
        """Dynamic task loading entry point (wired to ISC_LOAD)."""
        self.registry.install(executable)
        self.tracer.emit(self.sim.now, self.name, "os.load", executable=executable.name)
