"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.perf import BENCH_SCHEMA
from repro.cli import build_parser, main
from repro.families import FAMILIES


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


def test_fleet_command(capsys):
    assert main(["fleet", "--nodes", "1", "2", "--books-per-node", "4"]) == 0
    out = capsys.readouterr().out
    assert "fleet weak scaling" in out
    assert "aggregate MB/s" in out


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
    # bench measures the host wall clock: serial only, never cached
    for flag in ("--workers=2", "--no-cache"):
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", flag])


def test_run_summary_goes_to_stderr_not_stdout(capsys):
    assert main(["fig8", "--apps", "grep"]) == 0
    captured = capsys.readouterr()
    assert "# parallel:" not in captured.out
    assert "# parallel:" in captured.err


# -- bench ----------------------------------------------------------------------

def test_bench_no_save_compares_against_output_baseline(tmp_path, capsys):
    """``--no-save --output PATH`` reads its baseline from PATH and leaves
    it untouched."""
    path = tmp_path / "baseline.json"
    baseline = {"schema": BENCH_SCHEMA, "scenarios": {"small": {"events_per_sec": 1e12}}}
    path.write_text(json.dumps(baseline))
    argv = ["bench", "--scenario", "small", "--repeat", "1", "--no-save",
            "--output", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("small"))
    assert row.split()[-1] == "0.00x"  # measured against 1e12 events/s
    assert "baseline written" not in out
    assert json.loads(path.read_text()) == baseline
