"""Unit tests for the embedded OS: spawn/wait, pipelines, scripts, loading."""

import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import ARM_A53_QUAD, CpuCluster
from repro.ecc import CodewordLayout, EccConfig, EccEngine
from repro.flash import BitErrorModel, FlashArray, FlashGeometry
from repro.ftl import FlashTranslationLayer
from repro.isos import (
    EmbeddedOS,
    ExecutableRegistry,
    ExtentFileSystem,
    FlashAccessDevice,
    ProcessState,
    ShellError,
    parse_command_line,
    split_pipeline,
)
from repro.isos.loader import ExitStatus
from repro.isos.shell import split_script
from repro.sim import Simulator

GEO = FlashGeometry(
    channels=2, dies_per_channel=1, planes_per_die=1, blocks_per_plane=8, pages_per_block=8,
    page_size=2048,
)


class EchoApp:
    """Writes its args to stdout; costs a fixed cycle budget."""

    name = "echo"

    def run(self, ctx):
        yield from ctx.compute(1e6)
        return ExitStatus(code=0, stdout=" ".join(ctx.args).encode())


class UpperApp:
    """Uppercases stdin (pipeline stage)."""

    name = "upper"

    def run(self, ctx):
        yield from ctx.compute(1e5)
        return ExitStatus(code=0, stdout=(ctx.stdin or b"").upper())


class FailApp:
    name = "fail"

    def run(self, ctx):
        yield from ctx.compute(1e3)
        return ExitStatus(code=1, stdout=b"")


class CrashApp:
    name = "crash"

    def run(self, ctx):
        yield from ctx.compute(1e3)
        raise RuntimeError("segfault")


class CatApp:
    """Reads a file to stdout."""

    name = "cat"

    def run(self, ctx):
        data = yield from ctx.read_file(ctx.args[0])
        return ExitStatus(code=0, stdout=data or b"")


def make_os(sim=None):
    sim = sim or Simulator()
    flash = FlashArray(sim, geometry=GEO, error_model=BitErrorModel(rber0=1e-9))
    ecc = EccEngine(sim, EccConfig(layout=CodewordLayout(data_bytes=2048)))
    ftl = FlashTranslationLayer(sim, flash, ecc)
    fs = ExtentFileSystem(sim, FlashAccessDevice(sim, ftl))
    registry = ExecutableRegistry(
        {app.name: app for app in (EchoApp(), UpperApp(), FailApp(), CrashApp(), CatApp())}
    )
    cluster = CpuCluster(sim, ARM_A53_QUAD)
    return sim, EmbeddedOS(sim, cluster, fs, registry, isa="arm-a53")


def drive(sim, gen):
    return sim.run(sim.process(gen))


# -- shell parsing ------------------------------------------------------------

def test_parse_command_line_quoting():
    assert parse_command_line('grep "two words" file.txt') == ["grep", "two words", "file.txt"]


def test_parse_empty_rejected():
    with pytest.raises(ShellError):
        parse_command_line("   ")


def test_split_pipeline():
    stages = split_pipeline("cat f.txt | upper")
    assert stages == [["cat", "f.txt"], ["upper"]]


def test_split_pipeline_returns_fresh_lists_for_a_repeated_line():
    first = split_pipeline("gunzip f.gz | grep -c x")
    first[0].append("--mutated")
    first.append(["extra"])
    second = split_pipeline("gunzip f.gz | grep -c x")
    assert second == [["gunzip", "f.gz"], ["grep", "-c", "x"]]
    assert second is not first and second[0] is not first[0]


@pytest.mark.parametrize("line", ["grep 'open", "  |  ", "grep \"a b"])
def test_split_pipeline_rejects_bad_input_on_every_call(line):
    for _ in range(3):
        with pytest.raises(ShellError):
            split_pipeline(line)


def test_split_pipeline_respects_quotes():
    stages = split_pipeline("echo 'a|b' | upper")
    assert stages == [["echo", "a|b"], ["upper"]]


def test_split_pipeline_unterminated_quote():
    with pytest.raises(ShellError, match="unterminated"):
        split_pipeline("echo 'oops")


def _reference_argv(line: str) -> list[str]:
    """``parse_command_line`` as plain shlex: the oracle of its fast path."""
    try:
        argv = shlex.split(line, posix=True)
    except ValueError as exc:
        raise ShellError(f"cannot parse {line!r}: {exc}") from exc
    if not argv:
        raise ShellError("empty command")
    return argv


def _reference_pipeline(line: str) -> list[list[str]]:
    """``split_pipeline`` as a per-character ``|`` split outside quotes,
    then shlex per stage."""
    stages: list[str] = []
    current: list[str] = []
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "|":
            stages.append("".join(current))
            current = []
            continue
        current.append(ch)
    if quote:
        raise ShellError(f"unterminated quote in {line!r}")
    stages.append("".join(current))
    parsed = [_reference_argv(stage) for stage in stages if stage.strip()]
    if not parsed:
        raise ShellError("empty pipeline")
    return parsed


def _outcome(parse, line: str):
    try:
        return parse(line)
    except ShellError as exc:
        return ("ShellError", str(exc))


#: Printable ASCII lines, weighted towards what shlex treats specially, plus
#: whitespace that ``str.split`` splits on and shlex does not.
command_lines = st.lists(
    st.sampled_from([chr(c) for c in range(32, 127)])
    | st.sampled_from(["\t", " ", " | ", "'", '"', "\\", "#", "grep", "f.txt"])
    | st.sampled_from(["'a b'", '"c | d"', "x\\ y", "a#b", "''", "\\'"])
    | st.sampled_from(["\x0b", "\x0c", "\xa0", "\r\n"]),
    max_size=24,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(command_lines)
def test_command_parsing_equals_posix_shlex(line):
    assert _outcome(parse_command_line, line) == _outcome(_reference_argv, line)
    assert _outcome(split_pipeline, line) == _outcome(_reference_pipeline, line)


@pytest.mark.parametrize("line", [
    "chunksum 1024 4096 16384 .tmp/obj-7",
    "gunzip\tf.gz |grep  -c x|",
    "grep 'open",
    "grep a\\",
    "echo '#' | wc",
    "  ",
])
def test_command_parsing_equals_posix_shlex_on_known_lines(line):
    assert _outcome(parse_command_line, line) == _outcome(_reference_argv, line)
    assert _outcome(split_pipeline, line) == _outcome(_reference_pipeline, line)


def test_split_script_lines_and_semicolons():
    lines = split_script("echo a; echo b\n# comment\necho c")
    assert lines == ["echo a", "echo b", "echo c"]


# -- process lifecycle ---------------------------------------------------------

def test_run_echo():
    sim, os_ = make_os()
    status, process = drive(sim, os_.run("echo hello world"))
    assert status.code == 0
    assert status.stdout == b"hello world"
    assert process.state == ProcessState.EXITED
    assert process.finished_at > process.started_at


def test_pipeline_feeds_stdin():
    sim, os_ = make_os()
    status, _ = drive(sim, os_.run("echo shout | upper"))
    assert status.stdout == b"SHOUT"


def test_pipeline_aborts_on_failure():
    sim, os_ = make_os()
    status, _ = drive(sim, os_.run("fail | upper"))
    assert status.code == 1


def test_unknown_binary_fails_fast():
    _, os_ = make_os()
    with pytest.raises(KeyError, match="not found"):
        os_.spawn("doesnotexist --flag")


def test_crash_marks_process_failed():
    sim, os_ = make_os()
    process = os_.spawn("crash")
    with pytest.raises(RuntimeError, match="segfault"):
        drive(sim, os_.wait(process))
    assert process.state == ProcessState.FAILED
    assert isinstance(process.error, RuntimeError)


def test_cat_reads_filesystem():
    sim, os_ = make_os()
    drive(sim, os_.fs.write_file("notes.txt", b"file content"))
    status, _ = drive(sim, os_.run("cat notes.txt"))
    assert status.stdout == b"file content"


def test_script_runs_sequentially_and_stops_on_failure():
    sim, os_ = make_os()
    results = drive(sim, os_.run_script("echo one\nfail\necho never"))
    assert [line for line, _, _ in results] == ["echo one", "fail"]
    assert results[-1][1].code == 1


def test_ps_and_process_table():
    """The table lists live processes only; an exited one leaves it, and
    its holder still reads the outcome from the record."""
    sim, os_ = make_os()
    procs = [os_.spawn("echo a"), os_.spawn("echo b")]
    assert sorted(os_.process_table) == sorted(p.pid for p in procs)
    assert os_.running_processes() == 2

    def waiter():
        for p in procs:
            yield from os_.wait(p)

    drive(sim, waiter())
    assert os_.process_table == {}
    assert os_.running_processes() == 0
    assert [p.state for p in procs] == [ProcessState.EXITED] * 2
    assert [p.exit_status.stdout for p in procs] == [b"a", b"b"]
    assert all(p.finished_at == sim.now for p in procs)


def test_failed_process_leaves_the_table():
    sim, os_ = make_os()
    process = os_.spawn("crash")
    with pytest.raises(RuntimeError):
        drive(sim, os_.wait(process))
    assert os_.process_table == {}
    assert process.state == ProcessState.FAILED
    assert isinstance(process.error, RuntimeError)


def test_concurrent_processes_share_cores():
    sim, os_ = make_os()
    procs = [os_.spawn("echo x") for _ in range(8)]

    def waiter():
        for p in procs:
            yield from os_.wait(p)

    drive(sim, waiter())
    assert all(p.state == ProcessState.EXITED for p in procs)


def test_dynamic_task_loading():
    sim, os_ = make_os()

    class NewApp:
        name = "brandnew"

        def run(self, ctx):
            yield from ctx.compute(1e3)
            return ExitStatus(code=0, stdout=b"loaded at runtime")

    assert "brandnew" not in os_.registry.installed()
    os_.install_executable(NewApp())
    assert "brandnew" in os_.registry.installed()
    assert os_.registry.loads == 1
    status, _ = drive(sim, os_.run("brandnew"))
    assert status.stdout == b"loaded at runtime"


def test_telemetry_surface():
    sim, os_ = make_os()
    drive(sim, os_.run("echo warm"))
    assert os_.uptime() == sim.now
    assert 0.0 <= os_.utilization() <= 1.0
    assert os_.temperature_c() > 35.0


def test_bad_exit_type_raises():
    sim, os_ = make_os()

    class BadApp:
        name = "bad"

        def run(self, ctx):
            yield from ctx.compute(1e3)
            return 42  # not an ExitStatus

    os_.install_executable(BadApp())
    process = os_.spawn("bad")
    with pytest.raises(TypeError, match="expected ExitStatus"):
        drive(sim, os_.wait(process))


def test_kill_running_process():
    from repro.sim.core import Interrupt

    sim, os_ = make_os()

    class SlowApp:
        name = "slow"

        def run(self, ctx):
            yield from ctx.compute(1e12)  # ~11 minutes on the A53 cluster
            return ExitStatus(code=0)

    os_.install_executable(SlowApp())
    process = os_.spawn("slow")

    def killer():
        yield sim.timeout(1e-3)
        assert os_.kill(process.pid, reason="test") is True

    sim.process(killer())
    with pytest.raises(Interrupt):
        drive(sim, os_.wait(process))
    assert process.state == ProcessState.FAILED


def test_kill_unknown_or_dead_pid():
    sim, os_ = make_os()
    assert os_.kill(999999) is False
    status, process = drive(sim, os_.run("echo done"))
    assert process.pid not in os_.process_table
    assert os_.kill(process.pid) is False  # already exited
