"""The ``python -m repro config`` verb, and scenario flags for other verbs.

``config`` is the introspection surface of the scenario layer::

    python -m repro config presets                  # registry + digests
    python -m repro config show fig6 --set fleet.nodes=2
    python -m repro config show --digest sha256...  # not supported: see diff
    python -m repro config diff smoke fig6
    python -m repro config digest                   # all presets, golden form

``add_scenario_args`` / ``scenario_from_args`` give the experiment verbs a
uniform ``--preset`` / ``--set`` surface; the resulting scenario's digest
is printed in each scorecard header so any run can be reproduced from its
output alone (``config show <preset> --set ...`` reprints the exact
configuration behind a digest).
"""

from __future__ import annotations

import argparse
import json

from repro.config.codec import canonical_json, config_digest, flatten, to_dict
from repro.config.presets import PRESETS, preset, preset_names
from repro.config.schema import ScenarioConfig

__all__ = [
    "add_config_subparser",
    "add_scenario_args",
    "scenario_from_args",
]


# -- scenario flags on experiment verbs -------------------------------------


def add_scenario_args(parser: argparse.ArgumentParser, default_preset: str) -> None:
    """Attach ``--preset`` / ``--set`` to an experiment verb."""
    parser.add_argument(
        "--preset", default=default_preset, choices=sorted(preset_names()),
        help=f"scenario preset to start from (default: {default_preset})",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="PATH=VALUE",
        help="override one scenario field by dotted path (repeatable), "
             "e.g. --set fleet.nodes=8 --set ftl.gc_threshold=0.2",
    )


def scenario_from_args(args: argparse.Namespace) -> ScenarioConfig | None:
    """The scenario an experiment verb should run, or None for a verb
    without scenario flags."""
    if getattr(args, "preset", None) is None:
        return None
    return preset(args.preset, tuple(args.overrides))


def scenario_header(config: ScenarioConfig) -> str:
    """The one-line scorecard header identifying the scenario."""
    return f"# scenario {config.name} digest={config_digest(config)}"


# -- the config verb --------------------------------------------------------


def _resolve(args: argparse.Namespace, name: str) -> ScenarioConfig:
    return preset(name, tuple(getattr(args, "overrides", ()) or ()))


def _cmd_show(args: argparse.Namespace) -> None:
    config = _resolve(args, args.preset_name)
    if args.flat:
        for key, value in sorted(flatten(config).items()):
            print(f"{key} = {value!r}")
    elif args.canonical:
        print(canonical_json(to_dict(config)))
    else:
        print(json.dumps(to_dict(config), indent=2, sort_keys=True))
    print(scenario_header(config))


def _cmd_digest(args: argparse.Namespace) -> None:
    """``<digest>  <preset>`` lines — the golden-file format CI diffs."""
    names = args.preset_name or sorted(preset_names())
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        raise SystemExit(
            f"unknown presets {unknown}; have {sorted(preset_names())}"
        )
    for name in names:
        config = _resolve(args, name)
        print(f"{config_digest(config)}  {name}")


def _cmd_diff(args: argparse.Namespace) -> None:
    """Flat field-by-field diff of two scenarios (overrides apply to B)."""
    a = preset(args.a)
    b = _resolve(args, args.b)
    flat_a, flat_b = flatten(a), flatten(b)
    changed = False
    for key in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(key, "<absent>"), flat_b.get(key, "<absent>")
        if va != vb:
            changed = True
            print(f"{key}: {va!r} -> {vb!r}")
    if not changed:
        print("no differences (identical digests)")


def _cmd_presets(_args: argparse.Namespace) -> None:
    from repro.analysis.experiments import format_series_table

    rows = []
    for name in sorted(preset_names()):
        config = preset(name)
        fleet = config.fleet
        rows.append([
            name,
            f"{fleet.nodes}x{fleet.devices_per_node}",
            f"{config.flash.capacity_bytes // (1024 * 1024)} MiB",
            f"{config.corpus.files}x{config.corpus.mean_file_bytes // 1024} KiB",
            len(config.faults.events) + config.faults.random,
            config_digest(config)[:12],
        ])
    print(format_series_table(
        "scenario presets",
        ["preset", "fleet", "device", "corpus", "faults", "digest[:12]"],
        rows,
    ))


def add_config_subparser(sub) -> None:
    """Register the ``config`` verb on the main CLI's subparsers."""
    p = sub.add_parser("config", help="inspect scenario presets and digests")
    csub = p.add_subparsers(dest="config_command", required=True)

    s = csub.add_parser("show", help="print one scenario as JSON (+digest)")
    s.add_argument("preset_name", nargs="?", default="paper-prototype",
                   choices=sorted(preset_names()))
    s.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE")
    s.add_argument("--flat", action="store_true",
                   help="dotted-path view instead of nested JSON")
    s.add_argument("--canonical", action="store_true",
                   help="the exact canonical JSON line the digest hashes")
    s.set_defaults(func=_cmd_show)

    s = csub.add_parser("digest", help="sha256 digests (golden-file format)")
    s.add_argument("preset_name", nargs="*",
                   help="presets to digest (default: all)")
    s.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE")
    s.set_defaults(func=_cmd_digest)

    s = csub.add_parser("diff", help="field-by-field diff of two scenarios")
    s.add_argument("a", choices=sorted(preset_names()))
    s.add_argument("b", choices=sorted(preset_names()))
    s.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="PATH=VALUE", help="overrides applied to B")
    s.set_defaults(func=_cmd_diff)

    s = csub.add_parser("presets", help="table of the preset registry")
    s.set_defaults(func=_cmd_presets)
