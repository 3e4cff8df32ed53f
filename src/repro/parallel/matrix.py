"""The experiment matrix as enumerable work items.

Every row of the paper's evaluation — scorecard claims, figure cells,
ablation points, bench scenarios — expressed as
:class:`~repro.parallel.jobs.JobSpec` lists that the runner can shard.
Targets are import strings, not callables, so this module stays cheap to
import and specs stay picklable for ``spawn`` workers.

Ablation cells live in ``benchmarks/`` (outside the installable package)
and are addressed with ``file:`` targets; :func:`ablation_jobs` only
enumerates them when the checkout is present.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.parallel.jobs import JobSpec, repo_root

__all__ = [
    "ablation_jobs",
    "backends_jobs",
    "bench_jobs",
    "drill_jobs",
    "fig1_jobs",
    "fig6_jobs",
    "fig7_jobs",
    "fig8_jobs",
    "full_matrix",
    "objstore_jobs",
    "objstore_sweep_jobs",
    "traffic_jobs",
    "validation_jobs",
]

#: Traffic mixes in canonical scorecard order.
TRAFFIC_MIXES = ("poisson", "diurnal", "bursty")

#: Scorecard claim names in canonical (paper) order; mirrors
#: ``repro.analysis.validation.CLAIM_ORDER`` without importing it.
CLAIM_NAMES = ("fig1", "table1", "fig6", "fig7", "fig8")


def _scenario_kwargs(scenario: dict | None) -> dict[str, Any]:
    """Scenario payload for a cell's kwargs.

    Omitted entirely when None so legacy job specs — and their cache
    keys — are byte-identical to previous releases; when present the
    scenario participates in the spec digest automatically.
    """
    return {} if scenario is None else {"scenario": scenario}


def validation_jobs(quick: bool = False, scenario: dict | None = None) -> list[JobSpec]:
    """One job per scorecard claim (the unit ``validate`` shards on)."""
    return [
        JobSpec(
            name=f"validate.{name}",
            target="repro.analysis.validation:run_claim",
            kwargs={"name": name, "quick": quick, **_scenario_kwargs(scenario)},
        )
        for name in CLAIM_NAMES
    ]


def fig1_jobs(ssd_counts: Sequence[int]) -> list[JobSpec]:
    return [
        JobSpec(
            name=f"fig1.n{count}",
            target="repro.analysis.figures:fig1_cell",
            kwargs={"ssd_count": count},
        )
        for count in ssd_counts
    ]


def fig6_jobs(
    app: str,
    device_counts: Sequence[int],
    scenario: dict | None = None,
    **cell_kwargs: Any,
) -> list[JobSpec]:
    return [
        JobSpec(
            name=f"fig6.{app}.n{count}",
            target="repro.analysis.figures:fig6_cell",
            kwargs={
                "app": app, "devices": count,
                **_scenario_kwargs(scenario), **cell_kwargs,
            },
        )
        for count in device_counts
    ]


def fig7_jobs(
    device_counts: Sequence[int], scenario: dict | None = None
) -> list[JobSpec]:
    """The host-only bzip2 measurement plus one device cell per count."""
    return [
        JobSpec(
            name="fig7.host",
            target="repro.analysis.figures:fig7_host_cell",
            kwargs=_scenario_kwargs(scenario),
        )
    ] + [
        JobSpec(
            name=f"fig7.bzip2.n{count}",
            target="repro.analysis.figures:fig6_cell",
            kwargs={
                "app": "bzip2", "devices": count, **_scenario_kwargs(scenario)
            },
        )
        for count in device_counts
    ]


def fig8_jobs(apps: Sequence[str], scenario: dict | None = None) -> list[JobSpec]:
    return [
        JobSpec(
            name=f"fig8.{app}",
            target="repro.analysis.figures:fig8_cell",
            kwargs={"app": app, **_scenario_kwargs(scenario)},
        )
        for app in apps
    ]


def backends_jobs(
    backends: Sequence[str] = ("page", "zoned"),
    scenario: dict | None = None,
    apps: Sequence[str] = ("grep", "gzip"),
    devices: int = 2,
) -> list[JobSpec]:
    """One comparison cell per ``(backend, app)`` on a pinned device count.

    The cell set is the ``backends`` verb's scorecard: every backend runs
    the identical workload, so cross-backend ``output_digest`` equality is
    an invariant and the throughput/GC columns isolate the backend.
    """
    return [
        JobSpec(
            name=f"backends.{backend}.{app}.n{devices}",
            target="repro.analysis.backends:backend_cell",
            kwargs={
                "backend": backend, "app": app, "devices": devices,
                **_scenario_kwargs(scenario),
            },
        )
        for backend in backends
        for app in apps
    ]


def traffic_jobs(
    scenario: dict | None = None, mixes: Sequence[str] = TRAFFIC_MIXES
) -> list[JobSpec]:
    """One serving cell per arrival mix.  Each cell is hermetic (the
    scenario dict plus the mix override are the whole input), so results
    cache and shard like any other matrix cell."""
    return [
        JobSpec(
            name=f"traffic.{mix}",
            target="repro.service.drill:run_traffic_cell",
            kwargs={"mix": mix, **_scenario_kwargs(scenario)},
        )
        for mix in mixes
    ]


def drill_jobs(scenario: dict | None = None) -> list[JobSpec]:
    """The metastable drill pair: defenses on, then the defenses-off
    counterfactual of the *same* scenario (same digest, same seed, same
    fault trigger) — demonstrating both the recovery and the sustained
    degraded state the defenses prevent."""
    return [
        JobSpec(
            name=f"drill.{tag}",
            target="repro.service.drill:run_metastable_cell",
            kwargs={"defenses": defenses, **_scenario_kwargs(scenario)},
        )
        for tag, defenses in (("defenses-on", True), ("defenses-off", False))
    ]


#: Dedup-ratio dials for the default objstore sweep, in dial order.
OBJSTORE_SWEEP_DIALS = (0.0, 0.25, 0.5, 0.75, 0.9)


def objstore_jobs(scenario: dict | None = None) -> list[JobSpec]:
    """The object-store drill pair: the GC-under-crash cell and the
    delete-wave reclamation stress over the *same* scenario (same digest,
    same seed, same fault windows) — together they cover the crash-recovery
    invariant from both sides: nothing referenced is ever lost, and nothing
    unreferenced outlives the post-recovery sweep."""
    return [
        JobSpec(
            name=f"objstore.{tag}",
            target=f"repro.objstore.drill:{func}",
            kwargs=_scenario_kwargs(scenario),
        )
        for tag, func in (
            ("ingest", "run_objstore_cell"),
            ("gc-drill", "run_gc_drill_cell"),
        )
    ]


def objstore_sweep_jobs(
    scenario: dict | None = None,
    dials: Sequence[float] = OBJSTORE_SWEEP_DIALS,
) -> list[JobSpec]:
    """One ingest cell per dedup-ratio dial — the fig-style sweep showing
    measured dedup ratio (offered / stored bytes) tracking the workload
    dial as chunk+hash offload suppresses duplicate writes."""
    return [
        JobSpec(
            name=f"objstore.sweep.d{dial:g}",
            target="repro.objstore.drill:run_objstore_sweep_cell",
            kwargs={"dedup_ratio": dial, **_scenario_kwargs(scenario)},
        )
        for dial in dials
    ]


def bench_jobs(names: Sequence[str], repeat: int = 1) -> list[JobSpec]:
    """Bench scenarios as jobs.  Never cache these: the wall clock *is*
    the measurement, and a cached wall time is a lie about this run."""
    return [
        JobSpec(
            name=f"bench.{name}",
            target="repro.analysis.perf:bench_job",
            kwargs={"name": name, "repeat": repeat},
        )
        for name in names
    ]


#: Ablation cells: (job name, benchmark file, cell function, kwargs).
#: Each target is a module-level function with JSON-encodable scalar
#: arguments — the same functions the pytest benches sweep.
ABLATION_CELLS: tuple[tuple[str, str, str, dict], ...] = (
    *(
        (
            f"ablation.selectivity.d{rate}",
            "benchmarks/test_ablation_selectivity.py",
            "run_density",
            {"needle_rate": rate},
        )
        for rate in (0.0, 0.01, 0.10, 0.45)
    ),
    *(
        (
            f"ablation.queue_depth.q{depth}",
            "benchmarks/test_ablation_queue_depth.py",
            "measure_iops",
            {"queue_depth": depth},
        )
        for depth in (1, 4, 16)
    ),
    *(
        (
            f"ablation.overprovisioning.op{ratio}",
            "benchmarks/test_ablation_overprovisioning.py",
            "run_op_ratio",
            {"op_ratio": ratio},
        )
        for ratio in (0.10, 0.35)
    ),
)


def ablation_jobs() -> list[JobSpec]:
    """Ablation cells, when the benchmarks tree is available (checkouts)."""
    if not (repo_root() / "benchmarks").is_dir():
        return []
    return [
        JobSpec(name=name, target=f"file:{rel}:{func}", kwargs=dict(kwargs))
        for name, rel, func, kwargs in ABLATION_CELLS
    ]


def full_matrix(quick: bool = False) -> list[JobSpec]:
    """Everything shard-able in one list (claims, figures, ablations).

    Bench scenarios are deliberately absent: they measure the host wall
    clock and must not run concurrently with other work by default.
    """
    device_counts = (1, 2) if quick else (1, 2, 4)
    return [
        *validation_jobs(quick=quick),
        *fig1_jobs((1, 4, 8, 16, 32, 64)),
        *fig6_jobs("grep", device_counts),
        *fig7_jobs(device_counts),
        *fig8_jobs(("gzip", "gunzip", "bzip2", "bunzip2", "grep", "gawk")),
        *ablation_jobs(),
    ]
