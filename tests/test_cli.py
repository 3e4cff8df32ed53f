"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.config.cli import scenario_from_args
from repro.families import FAMILIES

DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
REPO = Path(__file__).resolve().parents[1]


def documented_commands() -> list:
    """Every ``python -m repro ...`` argv in a fenced bash block of the docs."""
    commands = []
    for doc in DOCS:
        text = (REPO / doc).read_text()
        for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
            for line in block.splitlines():
                _, found, argv = line.partition("python -m repro ")
                if found:
                    commands.append(pytest.param(
                        shlex.split(argv, comments=True), id=f"{doc}:{argv.split('#')[0].strip()}"
                    ))
    return commands


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_command_parses(argv):
    """Parse only: the verb, its flags and any scenario overrides resolve."""
    args = build_parser().parse_args(argv)
    scenario_from_args(args)


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "CompStor" in out
    assert "Biscuit" in out


def test_fig1_command(capsys):
    assert main(["fig1", "--devices", "1", "64"]) == 0
    out = capsys.readouterr().out
    assert "mismatch" in out
    assert "545.8" in out  # 64-SSD aggregate media GB/s


def test_fig6_command_small(capsys):
    assert main(["fig6", "--app", "grep", "--devices", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "grep throughput" in out
    assert "r^2=" in out


def test_quickstart_command(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "in-situ grep matched 100 lines" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["definitely-not-a-command"])


def test_shard_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["shard"])
    assert exc.value.code == 2
    assert "invalid choice: 'shard'" in capsys.readouterr().err


def test_bench_verb_is_gone(capsys):
    """Simulator perf is measured by ``benchmarks/e2e/run.py``."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_traffic_closed_loop_serves_the_sessions(capsys):
    """A closed-loop scenario prints one ``closed-loop`` row: the
    preset's sessions, not open-loop mixes."""
    from repro.config import preset, to_dict
    from repro.service.drill import run_traffic_cell

    assert main(["traffic", "--preset", "traffic-closedloop", "--no-cache"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["closed-loop"], ["poisson"], ["diurnal"],
                                    ["bursty"])]
    value = run_traffic_cell(to_dict(preset("traffic-closedloop")))
    assert rows == [[
        "closed-loop", str(value["requests"]), str(value["admitted"]),
        str(sum(value["shed"].values())), str(value["completed"]),
        str(value["lost"]), f"{value['p50_ms']:.3f}", f"{value['p99_ms']:.3f}",
        f"{value['p999_ms']:.3f}", f"{value['jain']:.4f}", str(value["violations"]),
    ]]


def test_traffic_mixes_on_a_closed_loop_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["traffic", "--preset", "traffic-closedloop", "--mixes", "poisson"])
    assert exc.value.code == 2
    assert "closed-loop sessions" in capsys.readouterr().err


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig6", "--app", "fortnite"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_smart_command(capsys):
    assert main(["smart", "--files", "2"]) == 0
    out = capsys.readouterr().out
    assert "SMART" in out
    assert "write_amplification" in out
    assert "latency.ISC_MINION" in out


def test_metrics_command(capsys):
    assert main(["metrics", "--workload", "grep", "--devices", "2", "--files", "2"]) == 0
    out = capsys.readouterr().out
    # all four instrumented layers show up in the Prometheus exposition
    assert "repro_ftl_host_reads_total" in out
    assert "repro_nvme_commands_total" in out
    assert "repro_isps_minions_total" in out
    assert "repro_cluster_placements_total" in out
    # JSON lines keep dotted names
    assert '"name": "ftl.host_reads"' in out
    # and the first minion's span tree replays the Table III lifecycle
    assert "span tree" in out
    for step in ("client.minion.sent", "minion.received", "minion.spawned",
                 "flash.read", "minion.tracked", "minion.responded",
                 "client.minion.returned"):
        assert step in out, f"span tree missing {step}"


def test_validate_quick_scorecard(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "reproduction scorecard" in out
    assert "5/5 claims reproduced" in out
    assert "FAIL" not in out


def test_fig7_command(capsys):
    assert main(["fig7", "--devices", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "aggregate" in out


def test_fig8_command_single_app(capsys):
    assert main(["fig8", "--apps", "grep"]) == 0
    out = capsys.readouterr().out
    assert "grep" in out and "paper ratio" in out


# -- parallel runner flags ----------------------------------------------------

def test_parallel_flags_parse_on_experiment_verbs():
    parser = build_parser()
    for verb in FAMILIES:
        args = parser.parse_args([verb, "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache is True
    args = parser.parse_args(["validate", "--cache-dir", "/tmp/x"])
    assert args.cache_dir == "/tmp/x"


def test_run_summary_goes_to_stderr_not_stdout(capsys):
    assert main(["fig8", "--apps", "grep"]) == 0
    captured = capsys.readouterr()
    assert "# parallel:" not in captured.out
    assert "# parallel:" in captured.err

