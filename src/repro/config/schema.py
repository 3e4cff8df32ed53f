"""The typed scenario-configuration tree.

Every experiment in the paper is "the same stack, one knob turned": device
count for Fig. 6, the app mix for Fig. 5/7, concurrent-IO load for Fig. 8.
:class:`ScenarioConfig` is the one declarative, hashable description of
such a scenario — flash geometry, FTL/ECC tuning, the ISPS CPU model, NVMe
queues, PCIe topology, fleet shape, corpus spec, recovery policy, fault
plan, and observability toggles — shared by the CLI, the parallel runner,
the result cache, and the fault planner.

Design rules:

- every node is a **frozen, slotted dataclass**, so a whole scenario is
  hashable and usable as a dict key;
- reusable component configs (:class:`~repro.ftl.FtlConfig`,
  :class:`~repro.ecc.EccConfig`, :class:`~repro.workloads.CorpusSpec`,
  :class:`~repro.faults.retry.RetryPolicy`,
  :class:`~repro.faults.retry.BreakerConfig`) are embedded directly rather
  than duplicated, so their validation runs exactly once, in one place;
- all leaves are JSON-representable scalars (or tuples of them), so a
  scenario round-trips losslessly through the canonical-JSON codec
  (:mod:`repro.config.codec`) and its sha256 digest identifies the run.

Construction of live systems from a scenario lives in
:mod:`repro.config.factory`; this module is pure description.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.ecc import EccConfig
from repro.faults.retry import BreakerConfig, RetryPolicy
from repro.flash import FlashGeometry
from repro.ftl import DEVICE_BACKENDS, FtlConfig
from repro.workloads import CorpusSpec

__all__ = [
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_PRIORITY_CLASSES",
    "DEVICE_BACKENDS",
    "BurnWindowConfig",
    "ClosedLoopConfig",
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
    "PcieConfig",
    "PriorityClassConfig",
    "ScenarioConfig",
    "ServiceConfig",
    "TrafficConfig",
]


@dataclass(frozen=True, slots=True)
class FlashConfig:
    """Flash geometry by capacity plus parallelism dimensions.

    ``geometry()`` reproduces :func:`repro.ssd.conventional.small_geometry`
    exactly: the base dimensions are scaled to ``capacity_bytes`` via
    ``blocks_per_plane``.  ``store_data`` selects functional mode (real page payloads) vs analytic
    mode (timing only).
    """

    capacity_bytes: int = 64 * 1024 * 1024
    channels: int = 8
    dies_per_channel: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 8  # pre-scale base; ``geometry()`` rescales
    pages_per_block: int = 16
    page_size: int = 16384
    store_data: bool = True

    def __post_init__(self) -> None:
        if self.capacity_bytes < 1024:
            raise ValueError("capacity_bytes must be at least 1 KiB")

    def geometry(self) -> FlashGeometry:
        base = FlashGeometry(
            channels=self.channels,
            dies_per_channel=self.dies_per_channel,
            planes_per_die=self.planes_per_die,
            blocks_per_plane=self.blocks_per_plane,
            pages_per_block=self.pages_per_block,
            page_size=self.page_size,
        )
        return base.scaled(self.capacity_bytes)


@dataclass(frozen=True, slots=True)
class NvmeConfig:
    """NVMe front-end shape; defaults mirror
    :class:`~repro.nvme.NvmeController`."""

    queue_pairs: int = 1
    queue_depth: int = 64
    workers_per_queue: int = 8
    firmware_latency: float = 5e-6
    firmware_cycles: float = 15_000.0

    def __post_init__(self) -> None:
        if self.queue_pairs < 1 or self.queue_depth < 1 or self.workers_per_queue < 1:
            raise ValueError("queue_pairs/queue_depth/workers_per_queue must be >= 1")
        if self.firmware_latency < 0 or self.firmware_cycles < 0:
            raise ValueError("firmware terms must be non-negative")


@dataclass(frozen=True, slots=True)
class PcieConfig:
    """Fabric topology: the paper's x16 Gen3 uplink over x4 endpoints."""

    uplink_lanes: int = 16
    endpoint_lanes: int = 4

    def __post_init__(self) -> None:
        if self.uplink_lanes < 1 or self.endpoint_lanes < 1:
            raise ValueError("lane counts must be >= 1")


@dataclass(frozen=True, slots=True)
class IspsConfig:
    """In-situ processing subsystem: which CPU model runs minions.

    ``cpu`` names an entry in :data:`repro.cpu.models.CPU_MODELS`
    (``"arm-a53-quad"`` is the paper's Table II quad Cortex-A53).
    """

    cpu: str = "arm-a53-quad"

    def __post_init__(self) -> None:
        from repro.cpu.models import CPU_MODELS

        if self.cpu not in CPU_MODELS:
            raise ValueError(
                f"unknown cpu model {self.cpu!r}; use {sorted(CPU_MODELS)}"
            )


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Two-level topology: nodes x devices, plus staging redundancy."""

    nodes: int = 1
    devices_per_node: int = 4
    with_baseline_ssd: bool = False
    replicas: int = 1  # copies of each book staged on the device ring

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.devices_per_node < 1:
            raise ValueError("nodes and devices_per_node must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One declarative fault, addressed by fleet-ring index.

    Times are milliseconds relative to the moment the plan is armed
    (conventionally: staging completion), matching the chaos CLI's
    ``IDX@MS`` grammar.  ``kind`` is a :class:`repro.faults.FaultKind`
    value string.
    """

    kind: str = "device-crash"
    ring_index: int = 0
    at_ms: float = 0.0
    duration_ms: float | None = None
    fraction: float = 0.0  # transient: share of commands failed
    factor: float = 1.0  # limp: firmware-latency multiplier

    def __post_init__(self) -> None:
        from repro.faults.plan import FaultKind

        if self.kind not in {k.value for k in FaultKind}:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"use {sorted(k.value for k in FaultKind)}"
            )
        if self.ring_index < 0:
            raise ValueError("ring_index must be >= 0")
        if self.at_ms < 0:
            raise ValueError("at_ms must be non-negative")


@dataclass(frozen=True, slots=True)
class FaultsConfig:
    """A replayable fault plan: explicit events plus seeded random ones."""

    seed: int = 0
    random: int = 0  # extra faults derived deterministically from ``seed``
    horizon_ms: float = 10.0  # random faults land in [0, horizon_ms) after staging
    events: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.random < 0:
            raise ValueError("random must be >= 0")
        if self.horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")

    @property
    def any(self) -> bool:
        return bool(self.events) or self.random > 0


@dataclass(frozen=True, slots=True)
class PriorityClassConfig:
    """One tenant priority class of the service frontend.

    ``share`` is the fraction of the tenant population hashed into this
    class; ``weight`` is its weighted-fair-queuing share of dispatch
    capacity.  ``rate``/``burst`` parameterise the *per-tenant* token
    bucket (requests per second of simulated time, bucket capacity), and
    ``slo_ms`` is the end-to-end latency objective a completion is graded
    against.
    """

    name: str = "standard"
    weight: float = 1.0
    share: float = 1.0
    rate: float = 200.0
    burst: float = 8.0
    slo_ms: float = 20.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority class needs a name")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 < self.share <= 1.0:
            raise ValueError("share must be in (0, 1]")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")


#: The default three-tier tenant population: a small premium class with a
#: large scheduler weight and tight SLO over a broad best-effort base.
DEFAULT_PRIORITY_CLASSES: tuple[PriorityClassConfig, ...] = (
    PriorityClassConfig(name="gold", weight=4.0, share=0.1, rate=400.0,
                        burst=16.0, slo_ms=10.0),
    PriorityClassConfig(name="silver", weight=2.0, share=0.3, rate=200.0,
                        burst=8.0, slo_ms=20.0),
    PriorityClassConfig(name="bronze", weight=1.0, share=0.6, rate=100.0,
                        burst=4.0, slo_ms=50.0),
)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """The multi-tenant service frontend: admission, scheduling, dispatch.

    ``queue_depth`` bounds the admission queue (arrivals beyond it are
    shed); ``concurrency`` is the number of dispatch slots pulling from
    the weighted fair queue into the fleet.
    """

    queue_depth: int = 64
    concurrency: int = 8
    classes: tuple[PriorityClassConfig, ...] = DEFAULT_PRIORITY_CLASSES

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.classes:
            raise ValueError("need at least one priority class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate priority class names: {names}")
        total = sum(c.share for c in self.classes)
        if total > 1.0 + 1e-9:
            raise ValueError(f"class shares sum to {total}; must be <= 1")


#: Arrival patterns the traffic generator understands.
TRAFFIC_PATTERNS: tuple[str, ...] = ("poisson", "diurnal", "bursty")


@dataclass(frozen=True, slots=True)
class TrafficConfig:
    """A seeded open-loop arrival stream over a large tenant population.

    ``tenants`` is the population size (IDs are drawn per arrival, so
    millions of distinct tenants cost no per-tenant state up front);
    ``skew`` shapes popularity (1.0 = uniform, larger concentrates traffic
    on low tenant IDs).  ``rate`` is the mean arrival rate in requests per
    second of *simulated* time; diurnal/bursty parameters modulate it.
    """

    pattern: str = "poisson"
    requests: int = 200
    rate: float = 4000.0
    tenants: int = 1_000_000
    skew: float = 1.0
    seed: int = 0
    period_ms: float = 50.0  # diurnal: cycle length
    amplitude: float = 0.8  # diurnal: rate swing in [0, 1)
    burst_len: int = 32  # bursty: arrivals per burst
    burst_factor: float = 8.0  # bursty: in-burst rate multiplier

    def __post_init__(self) -> None:
        if self.pattern not in TRAFFIC_PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r}; "
                f"use {', '.join(TRAFFIC_PATTERNS)}"
            )
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.skew < 1.0:
            raise ValueError("skew must be >= 1 (1 = uniform)")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")


@dataclass(frozen=True, slots=True)
class ClosedLoopConfig:
    """Closed-loop tenant sessions: think time plus retries-on-shed.

    Unlike the open-loop :class:`TrafficConfig` stream, each of the
    ``sessions`` concurrent tenants waits for its previous request to
    resolve (complete, shed, or abandon after ``timeout_ms``) and *thinks*
    before issuing the next one — so shedding and queueing feed back into
    offered load, which is the regime where retry storms and metastable
    failures live.  A shed or abandoned request is retried up to
    ``max_retries`` times with exponential, jittered backoff.
    """

    sessions: int = 32
    duration_ms: float = 50.0  # wall clock each session keeps issuing for
    think_ms: float = 5.0  # mean exponential think time between requests
    timeout_ms: float = 20.0  # client abandons (and may retry) after this
    max_retries: int = 3
    retry_backoff_ms: float = 2.0
    retry_multiplier: float = 2.0
    retry_jitter: float = 0.25  # +/- fraction of the raw backoff
    seed: int = 0
    #: Goodput (completions delivered before the client abandoned) is
    #: bucketed into windows this wide; the metastable drill's recovery
    #: assertion compares post-fault windows against the pre-trigger mean.
    goodput_window_ms: float = 5.0
    recovery_ms: float = 25.0  # drill: recovery deadline after fault clears
    recovery_bar: float = 0.9  # drill: fraction of pre-trigger goodput

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.think_ms < 0:
            raise ValueError("think_ms must be non-negative")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ms <= 0:
            raise ValueError("retry_backoff_ms must be positive")
        if self.retry_multiplier < 1.0:
            raise ValueError("retry_multiplier must be >= 1")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.goodput_window_ms <= 0:
            raise ValueError("goodput_window_ms must be positive")
        if self.recovery_ms <= 0:
            raise ValueError("recovery_ms must be positive")
        if not 0.0 < self.recovery_bar <= 1.0:
            raise ValueError("recovery_bar must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class BurnWindowConfig:
    """One long/short window pair for multi-window burn-rate alerting.

    Burn rate is ``bad_fraction / (1 - objective)``: 1.0 spends the error
    budget exactly at the sustainable pace.  An alert fires only when
    *both* windows burn faster than ``threshold`` — the long window proves
    the problem is real, the short window proves it is still happening.
    """

    long_ms: float = 50.0
    short_ms: float = 5.0
    threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.long_ms <= 0 or self.short_ms <= 0:
            raise ValueError("burn windows must be positive")
        if self.short_ms > self.long_ms:
            raise ValueError("short_ms must be <= long_ms")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


#: Default page/fast-burn pair, scaled to simulated-seconds drills.
DEFAULT_BURN_WINDOWS: tuple[BurnWindowConfig, ...] = (
    BurnWindowConfig(long_ms=50.0, short_ms=5.0, threshold=2.0),
    BurnWindowConfig(long_ms=10.0, short_ms=2.0, threshold=10.0),
)


@dataclass(frozen=True, slots=True)
class OverloadConfig:
    """Overload defenses for the service frontend.

    Four cooperating mechanisms, each individually classic:

    - **retry budget** — retried requests are admitted only while the
      budget holds tokens; fresh admissions earn ``retry_budget`` tokens
      each (capped at ``retry_budget_burst``), every retry spends one, so
      retries can never exceed that fraction of fresh traffic;
    - **CoDel** — at dispatch, a request whose queue sojourn exceeded
      ``codel_target_ms`` for a full ``codel_interval_ms`` is dropped, and
      the control interval shrinks by ``1/sqrt(drops)`` while the queue
      stays bad (standing queues drain; bursts pass);
    - **brownout** — admission sheds the lowest-weight classes first as the
      queue fills: with ``brownout_start`` = 0.5 and three classes, bronze
      sheds at >= 50% depth, silver at >= 75%, gold only at the full-queue
      backstop;
    - **AIMD autoscaler** — dispatch concurrency is raised by one worker
      each ``aimd_interval_ms`` the measured queue wait exceeds
      ``aimd_high_ms``, and multiplied by ``aimd_decrease`` when it falls
      below ``aimd_low_ms``, within ``[min_concurrency, max_concurrency]``.

    ``slo_objective`` and ``burn_windows`` parameterise burn-rate alerting
    over the per-window good/bad request series the tracker records.
    """

    retry_budget: float = 0.1  # retries per fresh admission earned
    retry_budget_burst: float = 8.0
    codel_target_ms: float = 2.0
    codel_interval_ms: float = 20.0
    brownout_start: float = 0.5  # queue-depth fraction; >= 1 disables
    aimd_interval_ms: float = 5.0
    aimd_low_ms: float = 1.0
    aimd_high_ms: float = 5.0
    aimd_decrease: float = 0.5
    min_concurrency: int = 1
    max_concurrency: int = 16
    slo_objective: float = 0.999
    burn_windows: tuple[BurnWindowConfig, ...] = DEFAULT_BURN_WINDOWS

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.retry_budget_burst < 1:
            raise ValueError("retry_budget_burst must be >= 1")
        if self.codel_target_ms <= 0 or self.codel_interval_ms <= 0:
            raise ValueError("codel target/interval must be positive")
        if self.brownout_start <= 0:
            raise ValueError("brownout_start must be positive (>= 1 disables)")
        if self.aimd_interval_ms <= 0:
            raise ValueError("aimd_interval_ms must be positive")
        if self.aimd_low_ms < 0 or self.aimd_high_ms <= 0:
            raise ValueError("aimd thresholds must be non-negative/positive")
        if self.aimd_low_ms > self.aimd_high_ms:
            raise ValueError("aimd_low_ms must be <= aimd_high_ms")
        if not 0.0 < self.aimd_decrease < 1.0:
            raise ValueError("aimd_decrease must be in (0, 1)")
        if self.min_concurrency < 1:
            raise ValueError("min_concurrency must be >= 1")
        if self.max_concurrency < self.min_concurrency:
            raise ValueError("max_concurrency must be >= min_concurrency")
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError("slo_objective must be in (0, 1)")


@dataclass(frozen=True, slots=True)
class ObjstoreConfig:
    """The deduplicating object store and its synthetic write workload.

    ``objects``/``mean_object_bytes``/``dedup_ratio``/``segment_bytes``/
    ``pool_segments``/``seed`` shape the generated payload batch
    (:class:`repro.objstore.workload.ObjectSpec`); ``chunk_min``/``avg``/
    ``max`` are the content-defined chunking bounds shipped to the in-situ
    ``chunksum`` minions; ``replicas`` is the block replica-chain length on
    the device ring.  ``write_fraction`` engages the service-frontend write
    mix: that fraction of tenants (hashed deterministically) issue PUTs
    instead of read commands.
    """

    objects: int = 16
    mean_object_bytes: int = 32 * 1024
    dedup_ratio: float = 0.5
    # duplicate extents must span several chunks for content-defined
    # boundaries to resynchronise inside them — that resync margin (about
    # one chunk per extent edge) is what separates the measured ratio from
    # the workload dial
    segment_bytes: int = 16 * 1024
    pool_segments: int = 8
    chunk_min: int = 512
    chunk_avg: int = 2048
    chunk_max: int = 8192
    replicas: int = 2
    seed: int = 0
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        self.params()  # ChunkParams validates the chunking bounds
        if self.objects < 1:
            raise ValueError("objects must be >= 1")
        if self.mean_object_bytes < 1:
            raise ValueError("mean_object_bytes must be >= 1")
        if not 0.0 <= self.dedup_ratio <= 1.0:
            raise ValueError("dedup_ratio must be in [0, 1]")
        if self.segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        if self.pool_segments < 1:
            raise ValueError("pool_segments must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")

    def params(self):
        """The chunking bounds as a :class:`~repro.objstore.chunking.ChunkParams`."""
        from repro.objstore.chunking import ChunkParams

        return ChunkParams(
            min_size=self.chunk_min, avg_size=self.chunk_avg, max_size=self.chunk_max
        )

    def spec(self):
        """The workload shape as an :class:`~repro.objstore.workload.ObjectSpec`."""
        from repro.objstore.workload import ObjectSpec

        return ObjectSpec(
            objects=self.objects,
            mean_object_bytes=self.mean_object_bytes,
            dedup_ratio=self.dedup_ratio,
            segment_bytes=self.segment_bytes,
            pool_segments=self.pool_segments,
            seed=self.seed,
        )


@dataclass(frozen=True, slots=True)
class DeviceBackendConfig:
    """The translation backend every device in the scenario is built on.

    ``backend`` names a :mod:`repro.ftl.backend` backend (``page`` is the
    page-mapped FTL, ``zoned`` the ZNS-style backend); the remaining knobs
    only apply to the zoned backend, which in turn rejects the page-only
    ``ftl`` knobs (GC policy, watermarks, wear levelling).
    ``zone_blocks`` is the number of whole erase blocks per zone and
    ``max_open_zones`` the host append parallelism.
    """

    backend: str = "page"
    zone_blocks: int = 4
    max_open_zones: int = 4

    def __post_init__(self) -> None:
        if self.backend not in DEVICE_BACKENDS:
            raise ValueError(
                f"unknown device backend {self.backend!r}; "
                f"use {', '.join(DEVICE_BACKENDS)}"
            )
        if self.zone_blocks < 1:
            raise ValueError("zone_blocks must be >= 1")
        if self.max_open_zones < 1:
            raise ValueError("max_open_zones must be >= 1")


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Observability toggles (both default off: zero-overhead scenarios)."""

    metrics: bool = False
    tracing: bool = False
    trace_capacity: int | None = None  # ring-buffer mode when set

    def __post_init__(self) -> None:
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1 (or None)")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One complete, declarative experiment scenario.

    The tree is frozen and hashable; derive variants with
    :func:`dataclasses.replace` or dotted-path overrides
    (:func:`repro.config.apply_overrides`).  Canonical JSON and the sha256
    digest come from :mod:`repro.config.codec`; live systems come from
    :mod:`repro.config.factory`.
    """

    name: str = "custom"
    seed: int = 0
    flash: FlashConfig = field(default_factory=FlashConfig)
    ftl: FtlConfig = field(default_factory=FtlConfig)
    ecc: EccConfig = field(default_factory=EccConfig)
    nvme: NvmeConfig = field(default_factory=NvmeConfig)
    pcie: PcieConfig = field(default_factory=PcieConfig)
    isps: IspsConfig = field(default_factory=IspsConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    retry: RetryPolicy | None = None
    breaker: BreakerConfig | None = None
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    # Sections added after the digest goldens were pinned carry
    # ``omit_if_none``: the codec leaves them out of the canonical JSON
    # while unset, so every pre-existing scenario keeps its digest and the
    # section only becomes part of a scenario's identity once engaged.
    service: ServiceConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )
    traffic: TrafficConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )
    closed_loop: ClosedLoopConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )
    overload: OverloadConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )
    objstore: ObjstoreConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )
    device: DeviceBackendConfig | None = field(
        default=None, metadata={"omit_if_none": True}
    )

    def __post_init__(self) -> None:
        if self.device is not None and self.device.backend == "zoned":
            self.ftl.check_zoned()

    def with_name(self, name: str) -> "ScenarioConfig":
        return replace(self, name=name)

    def section_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self))
