"""Table II — ISPS characteristics.

64-bit quad-core ARM Cortex-A53 @ 1.5 GHz, 32 KB I/D caches, 1 MB L2,
8 GB DDR4 @ 2133 MT/s.  Verified against the assembled device, not just
the constant table.
"""

from repro.analysis.experiments import format_series_table
from repro.config import build_node, preset


def test_table2_isps_characteristics(benchmark):
    def build():
        node = build_node(preset("smoke"))
        return node.compstors[0].isps.describe()

    info = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n" + format_series_table(
        "Table II — ISPS characteristics",
        ["property", "value"],
        [[k, str(v)] for k, v in info.items()],
    ))

    assert "Cortex-A53" in info["processor"]
    assert info["cores"] == 4
    assert info["freq_hz"] == 1.5e9
    assert info["l1_kib"] == 32
    assert info["l2_kib"] == 1024
    assert info["dram_gib"] == 8
