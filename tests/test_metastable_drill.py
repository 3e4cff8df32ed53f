"""The metastable drill: determinism, pinned golden, and the drill contract.

Mirrors ``test_traffic_determinism.py`` for the closed-loop cells:

* two in-process runs of the drill pair produce identical payloads, and
  the pinned ``metastable`` scorecard digest
  (``tests/golden_scorecards.txt``) never drifts silently;
* the ``drill`` CLI prints byte-identical stdout at ``--workers 1`` and
  ``--workers 4`` and on a cache-hit rerun (``tests/test_families.py``
  checks the same for every family at its default arguments);
* the drill *contract* holds: defenses-on recovers goodput within the
  recovery window, the defenses-off counterfactual (same scenario digest,
  same seed, same trigger) shows sustained degradation;
* engaged-mode accounting stays conservative at every layer
  (offers == admissions + sheds, admissions == completions + losses +
  CoDel drops, retry budget requested == admitted + rejected).
"""

from __future__ import annotations

from repro.cli import main
from repro.config import preset, to_dict
from repro.parallel import payload_digest
from repro.service.drill import run_metastable_cell, run_traffic_cell
from tests.test_families import golden_digests


def drill_pair():
    return [
        run_metastable_cell(defenses=True),
        run_metastable_cell(defenses=False),
    ]


def test_metastable_cell_deterministic_in_process():
    first = run_metastable_cell(defenses=True)
    second = run_metastable_cell(defenses=True)
    assert first == second
    assert payload_digest(first) == payload_digest(second)


def test_metastable_scorecard_matches_pinned_golden():
    assert payload_digest(drill_pair()) == golden_digests("metastable")["scorecard"], (
        "the metastable drill scorecard drifted; if intentional, re-pin "
        "tests/golden_scorecards.txt"
    )


def test_drill_contract_defenses_decide_the_outcome():
    """The same scenario, same seed, same trigger — only the defenses
    differ — must land in different attractors."""
    armed, bare = drill_pair()
    assert armed["defenses"] and not bare["defenses"]
    # defenses on: goodput back above the bar within the recovery window
    assert armed["metastable"]["recovered"]
    assert not armed["metastable"]["sustained_degradation"]
    # defenses off: the degraded state outlives the fault that caused it
    assert not bare["metastable"]["recovered"]
    assert bare["metastable"]["sustained_degradation"]
    # the trigger and the bar are identical across arms
    assert armed["metastable"]["trigger_ms"] == bare["metastable"]["trigger_ms"]
    assert armed["metastable"]["clear_ms"] == bare["metastable"]["clear_ms"]
    # and the client experience tells the same story
    assert bare["closed"]["abandoned"] > 5 * armed["closed"]["abandoned"]


def test_defenses_on_engages_the_overload_mechanisms():
    armed = run_metastable_cell(defenses=True)
    budget = armed["retry_budget"]
    assert budget["requested"] == budget["admitted"] + budget["rejected"]
    assert armed["shed"]["retry_budget"] == budget["rejected"]
    assert armed["shed"]["brownout"] > 0
    assert armed["aimd"]["peak"] > armed["aimd"]["final"] or armed["aimd"]["increases"] > 0
    assert any(alert["fired"] for alert in armed["burn"])


def test_engaged_accounting_identities():
    for payload in drill_pair():
        closed = payload["closed"]
        # every offer is an admission or a shed
        offers = closed["issued"] + closed["retried"]
        assert payload["requests"] == offers
        assert payload["requests"] == payload["admitted"] + sum(payload["shed"].values())
        # every admission resolves exactly once
        assert payload["admitted"] == (
            payload["completed"] + payload["lost"] + payload["dropped"]
        )
        # stale completions are completions whose client had already left
        assert closed["stale"] <= payload["completed"]
        assert closed["stale"] <= closed["abandoned"]


def test_closedloop_cell_without_faults_is_deterministic():
    scenario = to_dict(preset("traffic-closedloop"))
    first = run_traffic_cell(scenario)
    second = run_traffic_cell(scenario)
    assert first == second
    assert first["pattern"] == "closed-loop"
    assert "metastable" not in first  # scoring is the drill's job
    assert sum(first["goodput"]["windows"]) > 0


def test_drill_cli_byte_identical_across_worker_counts(capsys):
    assert main(["drill", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(["drill", "--workers", "4", "--no-cache"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    digest = golden_digests("metastable")["scorecard"]
    assert f"scorecard digest={digest}" in serial


def test_drill_cli_cache_hit_reprints_same_bytes(tmp_path, capsys):
    argv = ["drill", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert cold.out == warm.out
    assert "executed=0" in warm.err  # both arms came from the cache
