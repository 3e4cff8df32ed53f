"""The reach audit's allowlist stays well-formed without running the audit.

``benchmarks/reach.py`` runs every entry point under a profile hook (minutes)
and fails on any ``def`` in ``src/repro`` that nothing reached unless
``benchmarks/reach_allowlist.txt`` keeps it.  This checks the list itself,
cheaply: every line names a ``def`` that still exists, carries one of the
audit's tags and a reason, and appears once.  A stale line would otherwise
keep a future ``def`` of the same name without anyone deciding to.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

REACH = Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach_audit", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_allowlist_entries_name_existing_defs_once_with_a_tag():
    reach = load_reach()
    defined = {f"{rel}:{name}" for (rel, _first), (name, _lines) in reach.definitions().items()}
    entries = reach.read_allowlist()
    assert entries, "the allowlist is empty — reach_allowlist.txt moved?"
    missing = [name for name, _tag, _reason in entries if name not in defined]
    assert not missing, f"allowlisted defs that do not exist: {missing}"
    untagged = [(name, tag) for name, tag, _reason in entries if tag not in reach.TAGS]
    assert not untagged, f"unknown tags (allowed: {sorted(reach.TAGS)}): {untagged}"
    unreasoned = [name for name, _tag, reason in entries if not reason.strip()]
    assert not unreasoned, f"allowlist lines without a reason: {unreasoned}"
    repeated = [name for name, count in Counter(n for n, _, _ in entries).items() if count > 1]
    assert not repeated, f"allowlisted more than once: {repeated}"


def test_definitions_cover_module_and_class_level_defs():
    """The audit's view of ``src/repro``: decorated defs report their first
    decorator's line (as code objects do), nested functions are skipped."""
    reach = load_reach()
    names = {name for (rel, _first), (name, _lines) in reach.definitions().items()
             if rel == "sim/core.py"}
    assert {"Simulator.run", "Simulator.step", "Event.triggered"} <= names
    first = {name: line for (rel, line), (name, _n) in reach.definitions().items()
             if rel == "sim/core.py"}
    source = (REACH.parents[1] / "src" / "repro" / "sim" / "core.py").read_text().splitlines()
    assert source[first["Event.triggered"] - 1].strip() == "@property"
