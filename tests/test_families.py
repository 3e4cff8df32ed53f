"""Every experiment family, checked the same way.

One parametrized test runs each matrix verb of :data:`repro.families.FAMILIES`
(plus the extra argv a family needs covered) and asserts:

- a cache-hit rerun prints the same stdout bytes with ``executed=0``;
- ``--workers 4`` (spawn workers, no cache) prints the same bytes again;
- at default arguments, the digest lines match ``tests/golden_scorecards.txt``;
- the family's own output check, where it has one: both objstore drill rows
  end "yes", the dedup sweep is monotone in its dial, and the scenario header
  of a ``--set`` run is the digest ``config show`` prints for it.

A second test runs the flagship drills end to end on the zoned backend.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.config.cli import scenario_header
from repro.config.presets import preset
from repro.families import FAMILIES, OBJSTORE_SWEEP_DIALS

GOLDEN_FILE = Path(__file__).with_name("golden_scorecards.txt")
DIGEST_LINE = re.compile(r"^(\w+) digest=([0-9a-f]{64})$", re.M)


def golden_digests(key: str) -> dict[str, str]:
    """``{label: digest}`` pinned for one family's scorecard."""
    pinned = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            name, label, digest = line.replace("digest=", "").split()
            if name == key:
                pinned[label] = digest
    assert pinned, f"no golden scorecard {key!r} in {GOLDEN_FILE.name}"
    return pinned


def _objstore_rows_end_yes(out: str) -> None:
    """The GC-under-faults invariant held in both drill cells."""
    assert len(re.findall(r"^(ingest|gc-drill)\b.*\byes\s*$", out, re.M)) == 2


def _sweep_is_monotone(out: str) -> None:
    ratios = [float(line.split()[-1]) for line in out.splitlines() if line[:1].isdigit()]
    assert len(ratios) == len(OBJSTORE_SWEEP_DIALS)
    assert ratios == sorted(ratios)


def _header_is_the_scenario(out: str) -> None:
    expected = preset("fig6", ("fleet.devices_per_node=2",))
    assert out.splitlines()[0] == scenario_header(expected)
    assert "5/5 claims reproduced" in out


CASES = [
    pytest.param("fig1", [], None, id="fig1"),
    pytest.param("fig6", [], None, id="fig6"),
    pytest.param("fig7", [], None, id="fig7"),
    pytest.param("fig8", [], None, id="fig8"),
    pytest.param(
        "validate", ["--quick", "--set", "fleet.devices_per_node=2"],
        _header_is_the_scenario, id="validate",
    ),
    pytest.param("traffic", [], None, id="traffic"),
    pytest.param("drill", [], None, id="drill"),
    pytest.param("objstore", [], _objstore_rows_end_yes, id="objstore"),
    pytest.param("objstore", ["--sweep"], _sweep_is_monotone, id="objstore-sweep"),
    pytest.param("backends", [], None, id="backends"),
]


def test_every_family_has_a_case():
    assert {case.values[0] for case in CASES} == set(FAMILIES)


@pytest.mark.parametrize("verb, argv, check", CASES)
def test_family(verb, argv, check, capsys):
    def run(*extra: str):
        assert main([verb, *argv, *extra]) == 0
        return capsys.readouterr()

    cold = run()
    assert "cache hits=0" in cold.err
    warm = run()
    assert warm.out == cold.out
    assert "executed=0" in warm.err
    parallel = run("--workers", "4", "--no-cache")
    assert parallel.out == cold.out

    golden = FAMILIES[verb].golden
    if golden and not argv:
        assert dict(DIGEST_LINE.findall(cold.out)) == golden_digests(golden), (
            f"the {golden} scorecard drifted; if intentional, re-pin "
            f"tests/golden_scorecards.txt from `python -m repro {verb}`"
        )
    if check is not None:
        check(cold.out)


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["fig6"], "fit: slope="),
        (["objstore"], "gc-drill"),
        (["chaos", "--preset", "chaos-drill"], "degraded-mode job report"),
    ],
    ids=["fig6", "objstore", "chaos"],
)
def test_zoned_backend_runs_end_to_end(argv, expect, capsys):
    assert main([*argv, "--set", "device.backend=zoned"]) == 0
    assert expect in capsys.readouterr().out
