"""Observability overhead guard.

The obs subsystem's contract is that the *default-off* path costs nothing
measurable. Components count what they do in their own attributes either
way; a registry reads counters and gauges from those attributes only when
it is exported, and a disabled registry (``NULL_METRICS`` is the default)
registers no view at all. Only histograms are pushed, behind one
``metrics.enabled`` test per observation.

Two properties are asserted here:

1. **Timing neutrality** — the simulated clock is bit-identical whether
   observability is absent, disabled, or fully enabled.  Instrumentation
   must never yield, so it cannot perturb the discrete-event schedule.
2. **Wall-clock overhead** — running with a disabled registry is within
   5% of running with none. Baseline and disabled rounds alternate and
   each mode keeps its best, so drift on a shared host hits both modes
   alike rather than whichever ran second.
"""

import time

from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.obs import MetricsRegistry
from repro.sim import Tracer
from repro.workloads import BookCorpus, CorpusSpec

ROUNDS = 5
OVERHEAD_BUDGET = 1.05  # disabled-mode wall clock <= 105% of baseline


def run_workload(metrics=None, tracer=None):
    """One node, four devices, a staged corpus, one grep minion per book."""
    node = build_node(
        ScenarioConfig(
            flash=FlashConfig(capacity_bytes=24 * 1024 * 1024),
            fleet=FleetConfig(devices_per_node=4),
        ),
        metrics=metrics,
        tracer=tracer,
    )
    sim = node.sim
    books = BookCorpus(CorpusSpec(files=8, mean_file_bytes=64 * 1024)).generate()
    sim.run(sim.process(node.stage_corpus(books, compressed=False)))
    shares = node.device_books(books)

    def flow():
        assignments = []
        for device, dev_books in shares.items():
            from repro.proto import Command

            assignments.extend(
                (device, Command(command_line=f"grep xylophone {b.name}"))
                for b in dev_books
            )
        responses = yield from node.client.gather(assignments)
        return responses

    responses = sim.run(sim.process(flow()))
    assert all(r.ok for r in responses)
    return sim.now


def interleaved_best_of(*fns, rounds=ROUNDS):
    """Best wall clock of each function over ``rounds`` alternating rounds."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - t0)
    return best


def test_observability_is_timing_neutral_and_cheap():
    # -- simulated time must be identical across all three modes ------------
    t_baseline = run_workload()
    t_disabled = run_workload(metrics=MetricsRegistry(enabled=False))
    t_enabled = run_workload(metrics=MetricsRegistry(), tracer=Tracer())
    assert t_baseline == t_disabled == t_enabled, (
        "observability perturbed the simulated schedule: "
        f"baseline={t_baseline} disabled={t_disabled} enabled={t_enabled}"
    )

    # -- disabled-mode wall clock stays within the budget --------------------
    base_wall, disabled_wall = interleaved_best_of(
        lambda: run_workload(),
        lambda: run_workload(metrics=MetricsRegistry(enabled=False)),
    )
    ratio = disabled_wall / base_wall
    print(
        f"\nobs overhead: baseline={base_wall * 1e3:.1f} ms "
        f"disabled={disabled_wall * 1e3:.1f} ms ratio={ratio:.3f}"
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled observability costs {(ratio - 1) * 100:.1f}% wall clock "
        f"(budget {(OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )


def test_enabled_mode_collects_from_every_layer():
    """Sanity for the other side of the trade: enabled mode actually works."""
    metrics = MetricsRegistry()
    run_workload(metrics=metrics)
    prefixes = {name.split(".")[0] for name in metrics.names()}
    assert {"client", "ftl", "isps", "nvme", "power"} <= prefixes
