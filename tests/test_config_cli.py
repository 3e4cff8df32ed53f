"""The ``config`` CLI verb and the scenario flags on experiment verbs.

The contract under test: every scorecard header digest is *reproducible* —
``python -m repro config show <preset> --set ...`` prints the exact
configuration (and digest) behind any run's header line, so a pasted
scorecard identifies its experiment completely.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.config import config_digest, preset, preset_names


def _header_digest(out: str) -> str:
    line = next(l for l in out.splitlines() if l.startswith("# scenario "))
    return line.split("digest=")[1].strip()


def test_config_show_prints_json_and_digest(capsys):
    assert main(["config", "show", "smoke"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("# scenario")])
    assert payload["name"] == "smoke"
    assert _header_digest(out) == config_digest(preset("smoke"))


def test_config_show_canonical_is_one_line(capsys):
    assert main(["config", "show", "smoke", "--canonical"]) == 0
    out = capsys.readouterr().out
    canonical = out.splitlines()[0]
    assert json.loads(canonical)["name"] == "smoke"
    assert " " not in canonical.split('"corpus"')[0].replace('", "', "")


def test_config_show_flat_lists_dotted_paths(capsys):
    assert main(["config", "show", "fig6", "--flat"]) == 0
    out = capsys.readouterr().out
    assert "fleet.devices_per_node = 4" in out
    assert "flash.capacity_bytes = 50331648" in out


def test_config_digest_golden_format(capsys):
    assert main(["config", "digest", "smoke", "fig6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{config_digest(preset('smoke'))}  smoke",
        f"{config_digest(preset('fig6'))}  fig6",
    ]


def test_config_digest_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        main(["config", "digest", "not-a-preset"])


def test_config_diff_identical_and_changed(capsys):
    assert main(["config", "diff", "fig6", "fig6"]) == 0
    assert "no differences" in capsys.readouterr().out
    assert main(["config", "diff", "fig6", "fig6", "--set", "fleet.nodes=3"]) == 0
    out = capsys.readouterr().out
    assert "fleet.nodes: 1 -> 3" in out


def test_config_presets_lists_whole_registry(capsys):
    assert main(["config", "presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_set_without_preset_starts_from_paper_prototype(capsys):
    assert main(["config", "show", "--flat"]) == 0
    out = capsys.readouterr().out
    assert _header_digest(out) == config_digest(preset("paper-prototype"))


# -- scenario headers on experiment verbs ------------------------------------


def test_fig6_header_digest_reproduces_via_config_show(capsys):
    overrides = ["--set", "corpus.files=2", "--set", "corpus.mean_file_bytes=16384"]
    assert main(["fig6", "--devices", "1", "2", *overrides]) == 0
    run_digest = _header_digest(capsys.readouterr().out)
    assert main(["config", "show", "fig6", *overrides]) == 0
    assert _header_digest(capsys.readouterr().out) == run_digest


def test_fig6_scenario_matches_legacy_default_output(capsys):
    """The default ``fig6`` preset IS the legacy kwargs chain: numbers in
    the table must be identical to the pre-scenario output."""
    assert main(["fig6", "--devices", "1", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# scenario fig6 digest=")
    assert "slope=74.49 MB/s/device" in out


def test_chaos_preset_runs_declarative_fault_plan(capsys):
    assert main(["chaos", "--preset", "chaos-drill"]) == 0
    out = capsys.readouterr().out
    assert _header_digest(out) == config_digest(preset("chaos-drill"))
    assert "device-crash" in out and "transient" in out
    assert "lost" in out


def test_chaos_scenario_flags_are_gone():
    """``--preset``/``--set`` describe the chaos scenario; the old
    ``--nodes/--devices/--books/--replicas/--seed`` flags are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--nodes", "1"])
    assert exc.value.code == 2


def test_chaos_fault_flags_replace_the_declarative_plan(capsys):
    """The fault flags replace ``chaos-drill``'s fault events, and the rest
    of the preset is the old flags-mode scenario: these tables are the bytes
    ``chaos --nodes 1 --devices 2 --books 4 --kill 0@0.2 --recover-after 2``
    printed before the scenario flags were retired."""
    assert main(["chaos", "--kill", "0@0.2", "--recover-after", "2",
                 "--set", "fleet.nodes=1", "--set", "corpus.files=4"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith("# scenario chaos-drill digest=")
    assert lines[-1].startswith("scorecard digest=")
    tables = "".join(lines[1:-1]).encode()
    assert hashlib.sha256(tables).hexdigest() == (
        "d2d9bd23644c39e6798d7f70e8bd0b76961544fd09ce358aa797a4dc93dfa010"
    )


def test_chaos_fault_flags_header_names_the_plan_that_ran(capsys):
    """With fault flags the header digest is the scenario whose ``faults``
    section holds those flags, so ``config show`` expands it back into the
    plan that ran rather than the preset's declarative one."""
    assert main(["chaos", "--kill", "1@0.2", "--recover-after", "2"]) == 0
    run_digest = _header_digest(capsys.readouterr().out)
    assert run_digest != config_digest(preset("chaos-drill"))
    events = [{"kind": "device-crash", "ring_index": 1, "at_ms": 0.2,
               "duration_ms": 2.0}]
    assert main(["config", "show", "chaos-drill",
                 "--set", f"faults.events={json.dumps(events)}"]) == 0
    assert _header_digest(capsys.readouterr().out) == run_digest


@pytest.mark.parametrize("argv, message", [
    *(pytest.param([f"--kill={target}"], "expected IDX@MS", id=target)
      for target in ["abc", "1@x", "1@-1", "x@0.2", "-1@0.2"]),
    pytest.param(["--recover-after", "5"], "--recover-after needs a fault flag",
                 id="stray-recover-after"),
    pytest.param(["--limp-factor", "2", "--set", "seed=3"],
                 "--limp-factor needs a fault flag", id="stray-limp-factor"),
])
def test_chaos_rejects_malformed_fault_flags_before_running(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


