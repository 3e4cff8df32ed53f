"""Table I — comparison of in-storage computation related work.

Regenerates the capability matrix and *measures* two of its claims against
the executable baselines: Biscuit-style shared cores degrade storage under
compute (CompStor does not), and FPGA baselines cannot load new tasks at
runtime (CompStor can, in microseconds)."""

from repro.analysis.experiments import format_series_table
from repro.baselines import SYSTEMS, table1_rows


def test_table1_feature_matrix(benchmark):
    rows = benchmark.pedantic(table1_rows, rounds=1, iterations=1)

    print("\n" + format_series_table(
        "Table I — in-storage computation systems",
        ["system", "prototype", "dyn. loading", "library", "OS flexibility"],
        rows,
    ))

    assert len(rows) == 8
    full_feature = [s for s in SYSTEMS if s.all_features]
    assert [s.system for s in full_feature] == ["CompStor"]
    # the published critiques, as data
    biscuit = next(s for s in SYSTEMS if "Biscuit" in s.system)
    assert biscuit.dynamic_task_loading and not biscuit.os_level_flexibility
    bluedbm = next(s for s in SYSTEMS if "BlueDBM" in s.system)
    assert not bluedbm.dynamic_task_loading
    compstor = next(s for s in SYSTEMS if s.system == "CompStor")
    assert "24TB" in compstor.prototype and "A53" in compstor.prototype


def test_table1_loading_gap_is_measurable(benchmark):
    """CompStor loads a new task ~7 orders of magnitude faster than an FPGA
    platform can synthesise one."""
    from repro.baselines import FpgaAcceleratedSSD
    from repro.baselines.fpga import FpgaKernel
    from repro.config import build_node, preset
    from repro.isos.loader import ExitStatus

    class NewTask:
        name = "fresh-analytics"

        def run(self, ctx):
            yield from ctx.compute(1e3)
            return ExitStatus(code=0, stdout=b"ok")

    def measure():
        node = build_node(preset("smoke"))

        def load():
            t0 = node.sim.now
            yield from node.client.load_executable("compstor0", NewTask())
            return node.sim.now - t0

        compstor_seconds = node.sim.run(node.sim.process(load()))

        from repro.sim import Simulator
        from repro.ssd.conventional import small_geometry

        sim2 = Simulator()
        fpga = FpgaAcceleratedSSD(sim2, geometry=small_geometry(16 * 1024 * 1024))

        def synth():
            t0 = sim2.now
            yield from fpga.synthesize_kernel(FpgaKernel("fresh-analytics", 1e9))
            return sim2.now - t0

        fpga_seconds = sim2.run(sim2.process(synth()))
        return compstor_seconds, fpga_seconds

    compstor_seconds, fpga_seconds = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ndynamic load: CompStor {compstor_seconds * 1e3:.3f} ms "
          f"vs FPGA synthesis {fpga_seconds:.0f} s "
          f"({fpga_seconds / compstor_seconds:.0f}x)")
    assert compstor_seconds < 0.1
    assert fpga_seconds / compstor_seconds > 1e5
