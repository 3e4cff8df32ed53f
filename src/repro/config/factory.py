"""Live systems from declarative scenarios.

The one place where a :class:`~repro.config.schema.ScenarioConfig` becomes
simulator objects.  ``StorageNode.build`` / ``StorageFleet.build`` and the
CLI all funnel through here, so construction order — which determines event
scheduling, and therefore the golden schedule digests — is defined exactly
once.

Runtime-only collaborators (an existing :class:`~repro.sim.Simulator`, a
shared :class:`~repro.obs.metrics.MetricsRegistry`, an executable registry)
are explicit parameters, never config fields: a scenario stays a pure
value, equal to its canonical JSON.

Imports of the device/cluster layers are deliberately deferred into the
function bodies: those layers lazily import :mod:`repro.config` back (thin
build wrappers), and module-level imports in both directions would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config.schema import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.fleet import StorageFleet
    from repro.cluster.node import StorageNode
    from repro.faults.plan import FaultPlan
    from repro.isos.loader import ExecutableRegistry
    from repro.obs.metrics import MetricsRegistry
    from repro.pcie.switch import PciePort
    from repro.power import PowerMeter
    from repro.sim import Simulator, Tracer
    from repro.ssd import CompStorSSD
    from repro.workloads import BookFile

__all__ = [
    "bind_metrics_clock",
    "build_corpus",
    "build_device",
    "build_fault_plan",
    "build_fleet",
    "build_node",
    "build_observability",
]


def bind_metrics_clock(metrics: "MetricsRegistry | None", sim: "Simulator") -> None:
    """Point a registry at simulation time — the single binding site.

    Idempotent: a registry bound by an outer builder (fleet) is left alone
    by inner ones (nodes sharing the simulator).
    """
    if metrics is not None and metrics.clock is None:
        metrics.bind_clock(lambda: sim.now)


def build_observability(
    config: ScenarioConfig,
) -> "tuple[MetricsRegistry | None, Tracer | None]":
    """The scenario's ``obs`` toggles as live (or absent) instruments."""
    metrics = tracer = None
    if config.obs.metrics:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if config.obs.tracing:
        from repro.sim import Tracer

        tracer = Tracer(capacity=config.obs.trace_capacity)
    return metrics, tracer


def build_device(
    config: ScenarioConfig,
    sim: "Simulator | None" = None,
    *,
    name: str = "compstor",
    port: "PciePort | None" = None,
    meter: "PowerMeter | None" = None,
    registry: "ExecutableRegistry | None" = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "CompStorSSD":
    """One CompStor drive described by ``config`` (flash/ftl/ecc/nvme/isps).

    The fleet sections of the scenario are ignored here; use
    :func:`build_node` / :func:`build_fleet` for full topologies.
    """
    from repro.cpu.models import resolve_cpu
    from repro.sim import Simulator
    from repro.ssd import CompStorSSD

    sim = sim or Simulator(seed=config.seed)
    bind_metrics_clock(metrics, sim)
    return CompStorSSD(
        sim,
        name=name,
        geometry=config.flash.geometry(),
        port=port,
        meter=meter,
        registry=registry,
        store_data=config.flash.store_data,
        ftl_config=config.ftl,
        ecc_config=config.ecc,
        nvme_config=config.nvme,
        device_config=config.device,
        cpu_spec=resolve_cpu(config.isps.cpu),
        tracer=tracer,
        metrics=metrics,
    )


def build_node(
    config: ScenarioConfig,
    sim: "Simulator | None" = None,
    *,
    geometry=None,
    registry: "ExecutableRegistry | None" = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "StorageNode":
    """Host + fabric + ``fleet.devices_per_node`` CompStors, per the scenario.

    Mirrors the historical ``StorageNode.build`` construction sequence
    step-for-step (meter, fabric, devices, baseline, host, client) so
    schedules — and the golden digests over them — are bit-for-bit stable.
    ``geometry`` overrides ``config.flash`` for callers that hold a
    pre-built :class:`~repro.flash.FlashGeometry`.
    """
    from repro.cluster.node import StorageNode
    from repro.cpu.models import resolve_cpu
    from repro.host import HostServer, InSituClient
    from repro.pcie import PcieFabric
    from repro.power import PowerMeter
    from repro.sim import Simulator
    from repro.ssd import CompStorSSD, ConventionalSSD

    devices = config.fleet.devices_per_node
    sim = sim or Simulator(seed=config.seed)
    bind_metrics_clock(metrics, sim)
    meter = PowerMeter(sim, metrics=metrics)
    endpoints = devices + (1 if config.fleet.with_baseline_ssd else 0)
    fabric = PcieFabric(
        sim,
        endpoints=endpoints,
        uplink_lanes=config.pcie.uplink_lanes,
        endpoint_lanes=config.pcie.endpoint_lanes,
        energy_sink=meter.sink,
    )
    geometry = geometry if geometry is not None else config.flash.geometry()
    cpu_spec = resolve_cpu(config.isps.cpu)

    compstors = [
        CompStorSSD(
            sim,
            name=f"compstor{i}",
            geometry=geometry,
            port=fabric.ports[i],
            meter=meter,
            registry=registry.clone() if registry is not None else None,
            store_data=config.flash.store_data,
            ftl_config=config.ftl,
            ecc_config=config.ecc,
            nvme_config=config.nvme,
            device_config=config.device,
            cpu_spec=cpu_spec,
            tracer=tracer,
            metrics=metrics,
        )
        for i in range(devices)
    ]
    baseline = None
    if config.fleet.with_baseline_ssd:
        baseline = ConventionalSSD(
            sim,
            name="baseline-ssd",
            geometry=geometry,
            port=fabric.ports[devices],
            meter=meter,
            store_data=config.flash.store_data,
            ftl_config=config.ftl,
            ecc_config=config.ecc,
            nvme_config=config.nvme,
            device_config=config.device,
            tracer=tracer,
            metrics=metrics,
        )
    host = HostServer(sim, meter=meter, tracer=tracer)
    if baseline is not None:
        host.mount(baseline.controller)
    client = InSituClient(
        sim,
        tracer=tracer,
        metrics=metrics,
        retry_policy=config.retry,
        breaker_config=config.breaker,
    )
    for ssd in compstors:
        client.attach(ssd.controller)
    return StorageNode(sim, host, fabric, compstors, client, meter, baseline_ssd=baseline)


def build_fleet(
    config: ScenarioConfig,
    *,
    registry: "ExecutableRegistry | None" = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "StorageFleet":
    """``fleet.nodes`` storage nodes sharing one simulator and coordinator.

    When ``metrics``/``tracer`` are not supplied they come from the
    scenario's ``obs`` section (:func:`build_observability`).
    """
    from repro.cluster.fleet import StorageFleet
    from repro.sim import Simulator

    auto_metrics, auto_tracer = build_observability(config)
    metrics = metrics if metrics is not None else auto_metrics
    tracer = tracer if tracer is not None else auto_tracer
    sim = Simulator(seed=config.seed)
    bind_metrics_clock(metrics, sim)
    built = [
        build_node(config, sim=sim, registry=registry, tracer=tracer, metrics=metrics)
        for _ in range(config.fleet.nodes)
    ]
    return StorageFleet(sim, built, metrics=metrics)


def build_corpus(config: ScenarioConfig) -> "list[BookFile]":
    """The scenario's dataset; analytic (size-only) when ``store_data`` is off."""
    from repro.workloads import BookCorpus

    return BookCorpus(config.corpus).generate(functional=config.flash.store_data)


def build_fault_plan(
    config: ScenarioConfig,
    ring: "list[tuple[int, str]]",
    base_time: float = 0.0,
) -> "FaultPlan | None":
    """The scenario's fault plan aimed at a concrete device ring, or None.

    ``base_time`` shifts every event (conventionally: the simulation time
    at which staging completed and the plan is armed).
    """
    from repro.faults.plan import FaultPlan

    if not config.faults.any:
        return None
    return FaultPlan.from_config(config.faults, ring, base_time=base_time)


def scenario_for_node(
    *,
    name: str = "custom",
    devices: int,
    seed: int,
    geometry=None,
    device_capacity: int,
    store_data: bool,
    with_baseline_ssd: bool = False,
    ftl_config=None,
    ecc_config=None,
    uplink_lanes: int = 16,
    endpoint_lanes: int = 4,
    retry_policy=None,
    breaker_config=None,
    nodes: int = 1,
) -> ScenarioConfig:
    """The scenario equivalent of the historical kwargs chain.

    Backs the thin ``StorageNode.build`` / ``StorageFleet.build`` wrappers:
    every legacy keyword maps onto exactly one config field, defaults
    filling the rest, so old call sites get a faithful typed description of
    what they always built.
    """
    from repro.config.schema import FlashConfig, FleetConfig, PcieConfig
    from repro.ecc import EccConfig
    from repro.ftl import FtlConfig
    from repro.ssd.conventional import small_geometry

    flash = FlashConfig.from_geometry(
        geometry if geometry is not None else small_geometry(device_capacity),
        store_data=store_data,
    )
    return ScenarioConfig(
        name=name,
        seed=seed,
        flash=flash,
        ftl=ftl_config if ftl_config is not None else FtlConfig(),
        ecc=ecc_config if ecc_config is not None else EccConfig(),
        pcie=PcieConfig(uplink_lanes=uplink_lanes, endpoint_lanes=endpoint_lanes),
        fleet=FleetConfig(
            nodes=nodes,
            devices_per_node=devices,
            with_baseline_ssd=with_baseline_ssd,
        ),
        retry=retry_policy,
        breaker=breaker_config,
    )
