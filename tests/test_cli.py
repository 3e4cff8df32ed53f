"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
    for verb in ("fig1", "fig6", "fig7", "fig8", "validate"):
        args = parser.parse_args([verb, "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache is True
    args = parser.parse_args(["validate", "--cache-dir", "/tmp/x"])
    assert args.cache_dir == "/tmp/x"
    args = parser.parse_args(["bench", "--workers", "2"])
    assert args.workers == 2


def test_fig1_workers_output_matches_serial(capsys):
    assert main(["fig1", "--devices", "1", "64", "--no-cache"]) == 0
    serial = capsys.readouterr()
    assert main(["fig1", "--devices", "1", "64", "--no-cache", "--workers", "2"]) == 0
    parallel = capsys.readouterr()
    assert parallel.out == serial.out  # stdout byte-identical at any width


def test_run_summary_goes_to_stderr_not_stdout(capsys):
    assert main(["fig8", "--apps", "grep"]) == 0
    captured = capsys.readouterr()
    assert "# parallel:" not in captured.out
    assert "# parallel:" in captured.err


def test_figure_cache_hit_reuses_results(capsys):
    assert main(["fig8", "--apps", "grep"]) == 0
    first = capsys.readouterr()
    assert "executed=1" in first.err
    assert main(["fig8", "--apps", "grep"]) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "cache hits=1" in second.err and "executed=0" in second.err
