"""Experiment families: the one table behind every scenario verb.

The paper's evaluation (Figs. 1 and 6-8 and the claim scorecard) is a
matrix of independent seeded cells, and so is every family added since:
serving traffic, the metastable drill, the dedup object store, the
device-backend comparison, the chaos drill and the SMART log.  A
:class:`Family` declares one such verb:

- ``flags`` are its own options and ``preset`` its default scenario
  (``None``: the verb takes no ``--preset`` / ``--set``);
- ``cells`` enumerates its :class:`~repro.parallel.jobs.JobSpec` work
  items — import-string targets plus JSON kwargs, so they ship to
  ``spawn`` workers and key the result cache;
- ``render`` turns the merged cell values into stdout lines plus the gate
  failures that make the verb exit 1;
- ``golden`` names the verb's scorecard in ``tests/golden_scorecards.txt``;
  a family with a golden key ends its stdout with a ``scorecard digest=``
  line over every cell value.

:mod:`repro.cli` builds one subparser per entry and runs every family down
the same path: scenario header, :func:`~repro.parallel.run_jobs`, render,
digest line, exit gate.  Cells merge in canonical order, so stdout is
byte-identical at any ``--workers`` count and on cache hits.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.experiments import format_series_table
from repro.analysis.figures import FIG8_APPS, Fig1Row, Fig8Row, fig6_linearity
from repro.analysis.validation import CLAIM_ORDER, Claim
from repro.baselines import table1_rows
from repro.config import DEVICE_BACKENDS, FaultsConfig, FaultSpec, ScenarioConfig
from repro.parallel.jobs import JobSpec, payload_digest

__all__ = ["FAMILIES", "Family"]

#: ``(args, scenario payload or None) -> work items``
Cells = Callable[[argparse.Namespace, "dict | None"], "list[JobSpec]"]
#: ``(args, cell values in spec order) -> (stdout lines, gate failures)``
Render = Callable[[argparse.Namespace, list], "tuple[list[str], list[str]]"]
#: ``(args, scenario) -> scenario`` with verb flags folded in; raises
#: ``argparse.ArgumentTypeError`` on a usage error
Configure = Callable[[argparse.Namespace, ScenarioConfig], ScenarioConfig]


@dataclass(frozen=True)
class Family:
    """One scenario verb, declared."""

    verb: str
    help: str
    cells: Cells
    render: Render
    #: ``(names, add_argument kwargs)`` per verb-specific flag, in order.
    flags: tuple[tuple[tuple[str, ...], dict[str, Any]], ...] = ()
    preset: str | None = None
    golden: str | None = None
    configure: Configure | None = None


def _flag(*names: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return names, options


_DEVICES = _flag("--devices", type=int, nargs="+", default=[1, 2, 4])
_FIG6_CELL = "repro.analysis.figures:fig6_cell"


# -- the paper's figures and scorecard ---------------------------------------


def _fig1_cells(args, scenario):
    return [
        JobSpec(f"fig1.n{n}", "repro.analysis.figures:fig1_cell", {"ssd_count": n})
        for n in args.devices
    ]


def _fig1_render(args, values):
    rows = [Fig1Row(**value) for value in values]
    return [format_series_table(
        "Fig. 1 — media vs host bandwidth (GB/s)",
        ["SSDs", "aggregate media", "per-SSD link", "host ingest", "mismatch x"],
        [[r.ssd_count, r.media_bandwidth_bps / 1e9, r.endpoint_link_bps / 1e9,
          r.host_ingest_bps / 1e9, r.mismatch] for r in rows],
    )], []


def _fig6_cells(args, scenario):
    return [
        JobSpec(f"fig6.{args.app}.n{n}", _FIG6_CELL,
                {"app": args.app, "devices": n, "scenario": scenario})
        for n in args.devices
    ]


def _fig6_render(args, values):
    results = [tuple(value) for value in values]
    slope, _, r2 = fig6_linearity(results)
    return [
        format_series_table(
            f"Fig. 6 — {args.app} throughput vs device count",
            ["devices", "MB/s"],
            [[n, tp] for n, tp in results],
        ),
        f"fit: slope={slope:.2f} MB/s/device, r^2={r2:.4f}",
    ], []


def _fig7_cells(args, scenario):
    """The host-only bzip2 measurement plus one device cell per count."""
    return [
        JobSpec("fig7.host", "repro.analysis.figures:fig7_host_cell",
                {"scenario": scenario}),
    ] + [
        JobSpec(f"fig7.bzip2.n{n}", _FIG6_CELL,
                {"app": "bzip2", "devices": n, "scenario": scenario})
        for n in args.devices
    ]


def _fig7_render(args, values):
    host, *cells = values
    return [format_series_table(
        "Fig. 7 — bzip2 throughput, host + N CompStors (MB/s)",
        ["devices", "host", "CompStors", "aggregate"],
        [[n, host, tp, host + tp] for n, tp in cells],
    )], []


def _fig8_cells(args, scenario):
    return [
        JobSpec(f"fig8.{app}", "repro.analysis.figures:fig8_cell",
                {"app": app, "scenario": scenario})
        for app in args.apps
    ]


def _fig8_render(args, values):
    rows = [Fig8Row(**value) for value in values]
    return [format_series_table(
        "Fig. 8 — energy per GB (J/GB), measured vs paper",
        ["app", "CompStor", "paper", "Xeon", "paper", "ratio", "paper ratio"],
        [[r.app, r.compstor_j_per_gb, r.paper_compstor, r.xeon_j_per_gb,
          r.paper_xeon, r.ratio, r.paper_ratio] for r in rows],
    )], []


def _validate_cells(args, scenario):
    """One job per claim, in paper order."""
    return [
        JobSpec(f"validate.{name}", "repro.analysis.validation:run_claim",
                {"name": name, "quick": args.quick, "scenario": scenario})
        for name in CLAIM_ORDER
    ]


def _validate_render(args, values):
    claims = [Claim(**value) for value in values]
    failed = [c for c in claims if not c.passed]
    return [
        format_series_table(
            "reproduction scorecard",
            ["", "source", "paper claim", "measured"],
            [[("PASS" if c.passed else "FAIL"), c.source, c.claim, c.measured]
             for c in claims],
        ),
        f"\n{len(claims) - len(failed)}/{len(claims)} claims reproduced",
    ], [f"validate failed: {c.source} ({c.measured})" for c in failed]


# -- families added since: serving, overload, object store, backends ---------

TRAFFIC_MIXES = ("poisson", "diurnal", "bursty")
#: Dedup-ratio dials of the default ``objstore --sweep``, in dial order.
OBJSTORE_SWEEP_DIALS = (0.0, 0.25, 0.5, 0.75, 0.9)


def _traffic_cells(args, scenario):
    """One serving cell per arrival mix."""
    return [
        JobSpec(f"traffic.{mix}", "repro.service.drill:run_traffic_cell",
                {"mix": mix, "scenario": scenario})
        for mix in args.mixes
    ]


def _traffic_render(args, values):
    """The SLO scorecard (p50/p99/p999, fairness, shed counts) per mix;
    fails if any admitted request was lost in dispatch."""
    rows = [
        [value["pattern"], value["requests"], value["admitted"],
         sum(value["shed"].values()), value["completed"], value["lost"],
         f"{value['p50_ms']:.3f}", f"{value['p99_ms']:.3f}",
         f"{value['p999_ms']:.3f}", f"{value['jain']:.4f}", value["violations"]]
        for value in values
    ]
    lost = sum(value["lost"] for value in values)
    return [format_series_table(
        "traffic scorecard (end-to-end latency in ms)",
        ["mix", "offered", "admitted", "shed", "completed", "lost",
         "p50", "p99", "p999", "Jain", "SLO viol"],
        rows,
    )], [f"{lost} requests lost in dispatch"] if lost else []


def _drill_cells(args, scenario):
    """Defenses on, then the defenses-off counterfactual of the same
    scenario (same digest, seed and fault trigger)."""
    return [
        JobSpec(f"drill.{tag}", "repro.service.drill:run_metastable_cell",
                {"defenses": defenses, "scenario": scenario})
        for tag, defenses in (("defenses-on", True), ("defenses-off", False))
    ]


def _drill_render(args, values):
    """Goodput recovery after the trigger clears.  Fails unless defenses-on
    recovers within the window while defenses-off stays degraded — the
    metastable signature."""
    rows, failures = [], []
    for value in values:
        meta = value["metastable"]
        closed = value["closed"]
        rows.append([
            "on" if value["defenses"] else "off",
            closed["issued"], closed["retried"], closed["abandoned"],
            sum(value["shed"].values()), value.get("dropped") or 0,
            f"{meta['pre_goodput_per_window']:.1f}",
            "yes" if meta["recovered"] else "no",
            "-" if meta["recovered_after_ms"] is None
            else f"{meta['recovered_after_ms']:.0f}",
            "yes" if meta["sustained_degradation"] else "no",
        ])
        if value["defenses"] and not meta["recovered"]:
            failures.append("drill failed: defenses-on did not recover within the window")
        if not value["defenses"] and not meta["sustained_degradation"]:
            failures.append("drill failed: defenses-off did not sustain degradation")
    return [format_series_table(
        "metastable drill (goodput = fresh completions per window)",
        ["defenses", "issued", "retried", "abandoned", "shed", "dropped",
         "pre-trigger", "recovered", "after ms", "sustained degr."],
        rows,
    )], failures


_OBJSTORE_PAIR = (("ingest", "run_objstore_cell"), ("gc-drill", "run_gc_drill_cell"))


def _objstore_cells(args, scenario):
    """The GC-under-crash ingest cell and the delete-wave reclamation
    stress over the same scenario, or with ``--sweep`` one ingest cell per
    dedup-ratio dial."""
    if args.sweep is None:
        return [
            JobSpec(f"objstore.{tag}", f"repro.objstore.drill:{func}",
                    {"scenario": scenario})
            for tag, func in _OBJSTORE_PAIR
        ]
    return [
        JobSpec(f"objstore.sweep.d{dial:g}",
                "repro.objstore.drill:run_objstore_sweep_cell",
                {"dedup_ratio": dial, "scenario": scenario})
        for dial in args.sweep or OBJSTORE_SWEEP_DIALS
    ]


def _objstore_render(args, values):
    """The drill pair fails if any cell lost or corrupted a referenced
    block — the crash-recovery invariant.  The sweep has no gate."""
    if args.sweep is not None:
        return [format_series_table(
            "dedup sweep (measured ratio = offered / stored bytes)",
            ["dial", "objects", "chunks", "deduped", "offered B",
             "stored B", "deduped B", "ratio"],
            [[f"{value['dial']:.2f}", value["objects_committed"],
              value["chunks"], value["chunks_deduped"],
              value["offered_bytes"], value["stored_bytes"],
              value["deduped_bytes"], f"{value['measured_ratio']:.3f}"]
             for value in values],
        )], []
    rows, failures = [], []
    for (name, _), value in zip(_OBJSTORE_PAIR, values):
        integrity = value["integrity"]
        gets = value["gets"]
        rows.append([
            name, value["objects_committed"], value.get("objects_deleted", 0),
            f"{value['stats']['dedup_ratio']:.3f}",
            ",".join(value["down_during_gc"]) or "-",
            value["gc_during_crash"]["blocks"] + value["gc_after_recovery"]["blocks"],
            value.get("orphans_left", 0),
            gets["ok"], len(integrity["lost_blocks"]),
            "yes" if value["ok"] else "no",
        ])
        if not value["ok"]:
            detail = integrity["lost_blocks"] or integrity["refcount_drift"]
            failures.append(
                f"objstore drill failed: {name}: invariant violated ({detail or gets})"
            )
    return [format_series_table(
        "objstore drill (GC raced against the crash window)",
        ["cell", "committed", "deleted", "ratio", "down during GC",
         "GC blocks", "orphans", "gets ok", "lost", "ok"],
        rows,
    )], failures


def _backends_cells(args, scenario):
    """One cell per ``(backend, app)`` on a pinned device count."""
    return [
        JobSpec(f"backends.{backend}.{app}.n{args.devices}",
                "repro.analysis.backends:backend_cell",
                {"backend": backend, "app": app, "devices": args.devices,
                 "scenario": scenario})
        for backend in args.backends
        for app in args.apps
    ]


def _backends_render(args, values):
    """A per-backend scorecard over identical work, after Table I for
    context (the comparison is between device backends of this prototype,
    not between the surveyed systems).  The backend must never change what
    a minion computes, so any app whose output digest differs across
    backends fails the verb."""
    lines = [
        format_series_table(
            "Table I context (architectural approaches)",
            ["system", "compute", "os", "apps", "interface"],
            table1_rows(),
        ),
        format_series_table(
            "backend scorecard (identical workload per backend)",
            ["backend", "app", "devices", "minions", "MB/s", "GC",
             "WA", "resets", "retired", "output digest"],
            [[value["backend"], value["app"], value["devices"], value["minions"],
              f"{value['throughput_mb_s']:.3f}", value["gc_collections"],
              f"{value['write_amplification']:.4f}",
              value["zones"]["resets"] if "zones" in value else "-",
              value["zones"]["retired"] if "zones" in value else "-",
              value["output_digest"]]
             for value in values],
        ),
    ]
    for backend in args.backends:
        cells = [value for value in values if value["backend"] == backend]
        lines.append(f"{backend} digest={payload_digest(cells)}")
    failures = []
    for app in args.apps:
        digests = {value["output_digest"] for value in values if value["app"] == app}
        if len(digests) > 1:
            failures.append(
                f"backends failed: {app}: minion output differs across "
                f"backends ({sorted(digests)})"
            )
    return lines, failures


# -- the chaos drill and the SMART log ---------------------------------------


def _fault_target(raw: str) -> list:
    """``IDX@MS`` (``@MS`` optional) -> ``[ring index, ms after staging]``."""
    index, _, when = raw.partition("@")
    try:
        index, ms = int(index), float(when or "0")
        if index < 0 or not 0 <= ms < math.inf:
            raise ValueError(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected IDX@MS (integer ring index >= 0, finite ms >= 0), got {raw!r}"
        ) from None
    return [index, ms]


#: ``chaos`` fault flag -> fault kind.
_FAULT_KINDS = {"kill": "device-crash", "agent_crash": "agent-crash",
                "limp": "limp", "transient": "transient"}
#: ``chaos`` fault settings -> default; each needs a fault flag beside it.
_FAULT_KNOBS = {"recover_after": None, "restart_after": 2.0, "limp_factor": 4.0,
                "limp_duration": None, "transient_fraction": 0.2,
                "transient_duration": 2.0}


def _chaos_scenario(args, config):
    """The scenario with its fault section replaced by the fault flags, when
    any is given, so the header digest names the plan that runs."""
    if not args.random and not any(getattr(args, name) for name in _FAULT_KINDS):
        stray = [name for name in _FAULT_KNOBS if name in vars(args)]
        if stray:
            raise argparse.ArgumentTypeError(
                f"--{stray[0].replace('_', '-')} needs a fault flag "
                "(--kill, --agent-crash, --limp, --transient or --random)"
            )
        return config
    knob = {name: getattr(args, name, default)
            for name, default in _FAULT_KNOBS.items()}
    settings = {
        "kill": {"duration_ms": knob["recover_after"]},
        "agent_crash": {"duration_ms": knob["restart_after"]},
        "limp": {"duration_ms": knob["limp_duration"], "factor": knob["limp_factor"]},
        "transient": {"duration_ms": knob["transient_duration"],
                      "fraction": knob["transient_fraction"]},
    }
    try:
        faults = FaultsConfig(seed=config.seed, random=args.random,
                              horizon_ms=config.faults.horizon_ms, events=tuple(
            FaultSpec(kind=kind, ring_index=index, at_ms=ms, **settings[name])
            for name, kind in _FAULT_KINDS.items()
            for index, ms in getattr(args, name)
        ))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return dataclasses.replace(config, faults=faults)


def _chaos_cells(args, scenario):
    return [JobSpec("chaos", "repro.faults.drill:run_chaos_cell",
                    {"scenario": scenario})]


def _chaos_render(args, values):
    """Fault plan, degraded-mode job report and fleet health; fails if any
    minion was lost."""
    (value,) = values
    attribute = ["attribute", "value"]
    return [
        format_series_table(
            f"fault plan (seed={value['seed']}, fingerprint={value['fingerprint']})",
            ["t (ms)", "kind", "target", "detail"],
            value["plan"] or [["-", "none", "-", "fault-free drill"]],
        ),
        format_series_table("degraded-mode job report", attribute, value["report"]),
        format_series_table("fleet health", attribute, value["health"]),
    ], [f"lost minions: {', '.join(value['lost'])}"] if value["lost"] else []


def _smart_cells(args, scenario):
    return [JobSpec("smart", "repro.analysis.backends:smart_cell",
                    {"scenario": scenario, "files": args.files})]


def _smart_render(args, values):
    return [format_series_table(
        "SMART / health log after workload", ["attribute", "value"], values[0]
    )], []


def _fault_flag(name: str, help: str) -> tuple[tuple[str, ...], dict[str, Any]]:
    return _flag(name, action="append", default=[], type=_fault_target,
                 metavar="IDX@MS", help=f"{help} (repeatable)")


#: Every scenario verb, in the order ``repro --help`` lists them.
FAMILIES: dict[str, Family] = {family.verb: family for family in (
    Family(
        "fig1", "bandwidth mismatch (Fig. 1)", _fig1_cells, _fig1_render,
        flags=(_flag("--devices", type=int, nargs="+",
                     default=[1, 4, 8, 16, 32, 64]),),
    ),
    Family(
        "fig6", "linear scaling (Fig. 6)", _fig6_cells, _fig6_render,
        flags=(
            _flag("--app", default="grep",
                  choices=["grep", "gawk", "gzip", "gunzip", "bzip2", "bunzip2"]),
            _DEVICES,
        ),
        preset="fig6", golden="fig6",
    ),
    Family(
        "fig7", "aggregate host+devices bzip2 (Fig. 7)", _fig7_cells, _fig7_render,
        flags=(_DEVICES,), preset="fig6", golden="fig7",
    ),
    Family(
        "fig8", "energy per GB (Fig. 8)", _fig8_cells, _fig8_render,
        flags=(_flag("--apps", nargs="+", default=list(FIG8_APPS),
                     choices=list(FIG8_APPS)),),
        preset="fig8-ablation", golden="fig8",
    ),
    Family(
        "traffic", "multi-tenant serving drill (admission/WFQ/SLO scorecard)",
        _traffic_cells, _traffic_render,
        flags=(_flag("--mixes", nargs="+", default=list(TRAFFIC_MIXES),
                     choices=list(TRAFFIC_MIXES),
                     help="arrival mixes to serve, one matrix cell each"),),
        preset="traffic-smoke", golden="traffic-smoke",
    ),
    Family(
        "drill",
        "metastable-failure drill (closed-loop load, defenses on vs off)",
        _drill_cells, _drill_render,
        preset="metastable", golden="metastable",
    ),
    Family(
        "objstore",
        "dedup object-store drill (in-situ chunk+hash, GC under crash)",
        _objstore_cells, _objstore_render,
        flags=(_flag(
            "--sweep", type=float, nargs="*", default=None, metavar="DIAL",
            help="run the dedup-ratio sweep instead of the drill pair; optional "
                 "dial list overrides the default 0.0 0.25 0.5 0.75 0.9",
        ),),
        preset="objstore-smoke", golden="objstore-smoke",
    ),
    Family(
        "backends",
        "device-backend comparison (page vs zoned; minion outputs "
        "must match across backends)",
        _backends_cells, _backends_render,
        flags=(
            _flag("--backends", nargs="+", default=list(DEVICE_BACKENDS),
                  choices=list(DEVICE_BACKENDS),
                  help="device backends to compare, one cell set each"),
            _flag("--apps", nargs="+", default=["grep", "gzip"],
                  choices=["grep", "gawk", "gzip", "bzip2"],
                  help="apps to run per backend; outputs are digested per app"),
            _flag("--devices", type=int, default=2,
                  help="CompStors per cell (weak scaling: files scale with it)"),
        ),
        preset="smoke", golden="backends",
    ),
    Family(
        "validate", "grade every paper claim (scorecard)",
        _validate_cells, _validate_render,
        flags=(_flag("--quick", action="store_true", help="smaller device sweep"),),
        preset="fig6",
    ),
    Family(
        "chaos",
        "fleet job under injected faults (recovery drill); the fault flags "
        "--kill/--agent-crash/--limp/--transient/--random, when given, "
        "replace the scenario's declarative fault events",
        _chaos_cells, _chaos_render,
        flags=(
            _fault_flag("--kill", "crash device at ring index IDX, MS ms after staging"),
            _fault_flag("--agent-crash", "crash the ISPS agent daemon"),
            _fault_flag("--limp", "slow the device front end"),
            _fault_flag("--transient", "open a transient NVMe failure window"),
            _flag("--recover-after", type=float, default=argparse.SUPPRESS,
                  help="killed-device recovery delay in ms (default: permanent)"),
            _flag("--restart-after", type=float, default=argparse.SUPPRESS,
                  help="agent supervised-restart delay in ms (default: 2)"),
            _flag("--limp-factor", type=float, default=argparse.SUPPRESS,
                  help="limp latency multiplier (default: 4)"),
            _flag("--limp-duration", type=float, default=argparse.SUPPRESS,
                  help="limp window in ms (default: permanent)"),
            _flag("--transient-fraction", type=float, default=argparse.SUPPRESS,
                  help="share of commands failed (default: 0.2)"),
            _flag("--transient-duration", type=float, default=argparse.SUPPRESS,
                  help="transient window in ms (default: 2)"),
            _flag("--random", type=int, default=0, metavar="N",
                  help="add N random faults derived deterministically from "
                       "the scenario seed (--set seed=N)"),
        ),
        preset="chaos-drill", golden="chaos-drill", configure=_chaos_scenario,
    ),
    Family(
        "smart", "device SMART/health log after a workload",
        _smart_cells, _smart_render,
        flags=(_flag("--files", type=int, default=4),),
        preset="smoke", golden="smart",
    ),
)}
