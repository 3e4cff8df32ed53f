"""Live systems from declarative scenarios.

The one place where a :class:`~repro.config.schema.ScenarioConfig` becomes
simulator objects.  Every node and fleet — the CLI's, the figure runners',
the benchmarks' and the tests' — is built here, so construction order —
which determines event scheduling, and therefore the golden schedule
digests — is defined exactly once.

Runtime-only collaborators (an existing :class:`~repro.sim.Simulator`, a
shared :class:`~repro.obs.metrics.MetricsRegistry` or
:class:`~repro.sim.Tracer`) are explicit parameters, never config fields:
a scenario stays a pure value, equal to its canonical JSON.

Imports of the device/cluster layers are deferred into the function
bodies, so modules that only need the schema (the service layer imports
its config sections through :mod:`repro.config`) do not load the whole
device stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.schema import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.fleet import StorageFleet
    from repro.cluster.node import StorageNode
    from repro.faults.plan import FaultPlan
    from repro.obs.metrics import MetricsRegistry
    from repro.sim import Simulator, Tracer
    from repro.workloads import BookFile

__all__ = [
    "bind_metrics_clock",
    "build_corpus",
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
    metrics: "MetricsRegistry | None" = None,
    tracer: "Tracer | None" = None,
) -> "tuple[MetricsRegistry | None, Tracer | None]":
    """The instruments a build uses: those supplied, else the scenario's
    ``obs`` toggles as live (or absent) instruments."""
    if metrics is None and config.obs.metrics:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if tracer is None and config.obs.tracing:
        from repro.sim import Tracer

        tracer = Tracer(capacity=config.obs.trace_capacity)
    return metrics, tracer


def build_node(
    config: ScenarioConfig,
    sim: "Simulator | None" = None,
    *,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "StorageNode":
    """Host + fabric + ``fleet.devices_per_node`` CompStors, per the scenario.

    Construction order (meter, fabric, devices, baseline, host, client)
    fixes the event schedule, so it is pinned by the golden digests.
    ``metrics``/``tracer`` not supplied come from the scenario's ``obs``
    section (:func:`build_observability`).
    """
    from repro.cluster.node import StorageNode
    from repro.cpu.models import resolve_cpu
    from repro.host import HostServer, InSituClient
    from repro.pcie import PcieFabric
    from repro.power import PowerMeter
    from repro.sim import Simulator
    from repro.ssd import CompStorSSD, ConventionalSSD

    metrics, tracer = build_observability(config, metrics, tracer)
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
    geometry = config.flash.geometry()
    cpu_spec = resolve_cpu(config.isps.cpu)

    compstors = [
        CompStorSSD(
            sim,
            name=f"compstor{i}",
            geometry=geometry,
            port=fabric.ports[i],
            meter=meter,
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
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> "StorageFleet":
    """``fleet.nodes`` storage nodes sharing one simulator and coordinator.

    When ``metrics``/``tracer`` are not supplied they come from the
    scenario's ``obs`` section (:func:`build_observability`); each node's
    metric views carry a ``node`` label, as device names repeat per node.
    """
    from repro.cluster.fleet import StorageFleet
    from repro.sim import Simulator

    metrics, tracer = build_observability(config, metrics, tracer)
    sim = Simulator(seed=config.seed)
    bind_metrics_clock(metrics, sim)
    built = [
        build_node(config, sim=sim, tracer=tracer,
                   metrics=metrics and metrics.scoped(node=f"node{i}"))
        for i in range(config.fleet.nodes)
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
