"""``repro.config`` — the unified typed scenario layer.

One :class:`ScenarioConfig` describes a whole experiment — flash geometry,
FTL/ECC tuning, NVMe queues, PCIe topology, the ISPS CPU model, fleet
shape, corpus, recovery policy, fault plan, observability — and everything
else derives from it:

- **identity**: :func:`config_digest` hashes the canonical JSON
  (:func:`canonical_json` + :func:`to_dict`); the digest is printed in
  scorecard headers and participates in the parallel runner's cache keys;
- **variation**: :func:`apply_overrides` implements the CLI's dotted-path
  ``--set`` grammar; :func:`preset` serves the pinned registry
  (``paper-prototype``, ``smoke``, ``fig6``, ``fig8-ablation``,
  ``chaos-drill``);
- **construction**: :func:`build_node` / :func:`build_fleet` turn a
  scenario into live simulator objects — the only way to build a node or
  a fleet.
"""

from repro.config.codec import (
    ConfigError,
    canonical_json,
    config_digest,
    flatten,
    from_dict,
    scenario_from_dict,
    to_dict,
)
from repro.config.factory import (
    bind_metrics_clock,
    build_corpus,
    build_fault_plan,
    build_fleet,
    build_node,
    build_observability,
)
from repro.config.overrides import apply_overrides, parse_assignments
from repro.config.presets import PRESETS, preset, preset_names
from repro.config.schema import (
    DEVICE_BACKENDS,
    BurnWindowConfig,
    ClosedLoopConfig,
    DeviceBackendConfig,
    FaultSpec,
    FaultsConfig,
    FlashConfig,
    FleetConfig,
    IspsConfig,
    NvmeConfig,
    ObjstoreConfig,
    ObsConfig,
    OverloadConfig,
    PcieConfig,
    ScenarioConfig,
)

__all__ = [
    "BurnWindowConfig",
    "ClosedLoopConfig",
    "ConfigError",
    "DEVICE_BACKENDS",
    "DeviceBackendConfig",
    "FaultSpec",
    "FaultsConfig",
    "FlashConfig",
    "FleetConfig",
    "IspsConfig",
    "NvmeConfig",
    "ObjstoreConfig",
    "ObsConfig",
    "OverloadConfig",
    "PRESETS",
    "PcieConfig",
    "ScenarioConfig",
    "apply_overrides",
    "bind_metrics_clock",
    "build_corpus",
    "build_fault_plan",
    "build_fleet",
    "build_node",
    "build_observability",
    "canonical_json",
    "config_digest",
    "flatten",
    "from_dict",
    "parse_assignments",
    "preset",
    "preset_names",
    "scenario_from_dict",
    "to_dict",
]
