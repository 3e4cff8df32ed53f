"""The typed scenario layer: digests, round-trips, overrides, factories.

The preset digests are the repo's scenario identity: they are pinned in
``tests/golden_config_digests.txt`` (the exact output of ``python -m repro
config digest``) and must be stable across processes and refactors — a
digest change is a semantic change to what an experiment *is* and must be
deliberate.  The Hypothesis round-trip property guarantees any scenario the
override grammar can reach survives the canonical-JSON codec losslessly,
which is what makes the digest a faithful identity in the first place.
"""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    ConfigError,
    FaultSpec,
    FaultsConfig,
    FlashConfig,
    FleetConfig,
    ObsConfig,
    ScenarioConfig,
    apply_overrides,
    build_node,
    canonical_json,
    config_digest,
    flatten,
    parse_assignments,
    preset,
    preset_names,
    scenario_from_dict,
    to_dict,
)
from repro.faults.retry import RetryPolicy
from repro.ssd.conventional import small_geometry

GOLDEN_PATH = Path(__file__).parent / "golden_config_digests.txt"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _golden_digests() -> dict[str, str]:
    lines = GOLDEN_PATH.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


# -- preset digest goldens ---------------------------------------------------


def test_preset_digests_match_goldens():
    golden = _golden_digests()
    assert sorted(golden) == sorted(preset_names())
    for name in preset_names():
        assert config_digest(preset(name)) == golden[name], (
            f"preset {name!r} digest drifted; if intentional, regenerate "
            f"tests/golden_config_digests.txt with `python -m repro config digest`"
        )


def test_digests_stable_across_processes():
    """The digest must not depend on interpreter state (hash seed, import
    order): a fresh subprocess reproduces the golden file byte-for-byte."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = "12345"  # a digest must not see the hash seed
    out = subprocess.run(
        [sys.executable, "-m", "repro", "config", "digest"],
        capture_output=True, text=True, check=True, cwd=REPO_ROOT, env=env,
    ).stdout
    assert out == GOLDEN_PATH.read_text()


def test_digest_changes_with_any_field():
    base = preset("smoke")
    assert config_digest(replace(base, seed=base.seed + 1)) != config_digest(base)
    assert config_digest(replace(base, name="other")) != config_digest(base)


# -- canonical JSON round-trip (Hypothesis) ----------------------------------

scenarios = st.builds(
    ScenarioConfig,
    name=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=12
    ),
    seed=st.integers(0, 2**31 - 1),
    flash=st.builds(
        FlashConfig,
        capacity_bytes=st.integers(1024, 2**30),
        channels=st.integers(1, 16),
        pages_per_block=st.integers(4, 64),
        store_data=st.booleans(),
    ),
    fleet=st.builds(
        FleetConfig,
        nodes=st.integers(1, 8),
        devices_per_node=st.integers(1, 8),
        with_baseline_ssd=st.booleans(),
        replicas=st.integers(1, 4),
    ),
    retry=st.one_of(
        st.none(), st.builds(RetryPolicy, max_attempts=st.integers(1, 5))
    ),
    faults=st.builds(
        FaultsConfig,
        seed=st.integers(0, 1000),
        random=st.integers(0, 4),
        events=st.tuples() | st.tuples(
            st.builds(
                FaultSpec,
                kind=st.sampled_from(
                    ["device-crash", "agent-crash", "transient", "limp"]
                ),
                ring_index=st.integers(0, 7),
                at_ms=st.floats(0.0, 5.0, allow_nan=False),
                duration_ms=st.none() | st.floats(0.1, 5.0, allow_nan=False),
                factor=st.floats(1.0, 8.0, allow_nan=False),
            )
        ),
    ),
)


@given(scenarios)
def test_scenario_roundtrips_through_canonical_json(config):
    decoded = scenario_from_dict(to_dict(config))
    assert decoded == config
    assert config_digest(decoded) == config_digest(config)
    # canonical form is itself a fixed point
    assert canonical_json(to_dict(decoded)) == canonical_json(to_dict(config))


@given(scenarios)
def test_scenario_is_hashable_and_frozen(config):
    assert hash(config) == hash(scenario_from_dict(to_dict(config)))
    with pytest.raises(FrozenInstanceError):
        config.seed = 1


# -- dotted-path overrides ---------------------------------------------------


def test_parse_assignments_grammar():
    assert parse_assignments(["a.b=1", "x= y "]) == [("a.b", "1"), ("x", "y")]
    with pytest.raises(ConfigError):
        parse_assignments(["no-equals-sign"])
    with pytest.raises(ConfigError):
        parse_assignments(["=value"])


def test_override_coercion_by_declared_type():
    config = apply_overrides(
        ScenarioConfig(),
        [
            "fleet.nodes=8",                 # int
            "ftl.op_ratio=0.2",              # float
            "flash.store_data=no",           # bool
            "isps.cpu=xeon-e5-2620-v4",      # str (validated by the section)
            "corpus.compressions=gzip,bzip2",  # tuple[str, ...]
        ],
    )
    assert config.fleet.nodes == 8
    assert config.ftl.op_ratio == 0.2
    assert config.flash.store_data is False
    assert config.isps.cpu == "xeon-e5-2620-v4"
    assert config.corpus.compressions == ("gzip", "bzip2")


def test_override_unknown_key_names_valid_fields():
    with pytest.raises(ConfigError, match="valid keys.*devices_per_node"):
        apply_overrides(ScenarioConfig(), ["fleet.device_count=2"])
    with pytest.raises(ConfigError, match="no field"):
        apply_overrides(ScenarioConfig(), ["turbo=on"])


def test_removed_sharding_section_is_rejected():
    """``sharding`` is not a schema section: an override or a scenario
    dict naming it fails loudly instead of riding along silently."""
    from repro.cli import main

    with pytest.raises(ConfigError, match="no field 'sharding'"):
        main(["config", "show", "smoke", "--set", "sharding.shards=2"])
    payload = dict(to_dict(preset("traffic-soak")), sharding={"shards": 4})
    with pytest.raises(ConfigError, match="unknown key.*sharding"):
        scenario_from_dict(payload)


def test_override_type_errors_are_loud():
    with pytest.raises(ConfigError, match="expected an integer"):
        apply_overrides(ScenarioConfig(), ["fleet.nodes=many"])
    with pytest.raises(ConfigError, match="expected a boolean"):
        apply_overrides(ScenarioConfig(), ["flash.store_data=maybe"])
    # section validators still run (replace() re-invokes __post_init__)
    with pytest.raises(ConfigError):
        apply_overrides(ScenarioConfig(), ["fleet.nodes=0"])


def test_override_materialises_optional_section():
    base = ScenarioConfig()
    assert base.retry is None
    config = apply_overrides(base, ["retry.max_attempts=2"])
    assert config.retry is not None and config.retry.max_attempts == 2
    cleared = apply_overrides(config, ["retry=none"])
    assert cleared.retry is None


def test_override_order_matters_last_wins():
    config = apply_overrides(ScenarioConfig(), ["seed=1", "seed=7"])
    assert config.seed == 7


def test_preset_with_overrides_changes_digest():
    assert config_digest(preset("fig6", ("fleet.nodes=2",))) != config_digest(
        preset("fig6")
    )


def test_flatten_covers_every_leaf():
    flat = flatten(preset("chaos-drill"))
    assert flat["fleet.nodes"] == 2
    assert "faults.events" in flat
    assert "retry.max_attempts" in flat


# -- geometry fidelity -------------------------------------------------------


def test_flash_config_roundtrips_small_geometry():
    for capacity in (16, 24, 32, 48, 64):
        capacity_bytes = capacity * 1024 * 1024
        geo = FlashConfig(capacity_bytes=capacity_bytes).geometry()
        assert geo == small_geometry(capacity_bytes)


# -- construction ------------------------------------------------------------


def test_build_node_honours_obs_section():
    config = replace(preset("smoke"), obs=ObsConfig(metrics=True, tracing=True))
    client = build_node(config).client
    assert client.metrics.enabled
    assert client.tracer.enabled
