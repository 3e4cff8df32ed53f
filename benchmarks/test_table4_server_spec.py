"""Table IV — server specification.

Xeon E5-2620 v4 host, 32 GB DDR4, Ubuntu, an off-the-shelf NVMe SSD on one
server and the 24 TB CompStor on the other.  Verified against the built
system plus the full-scale prototype geometry.
"""

from repro.analysis.experiments import format_series_table
from repro.config import FlashConfig, FleetConfig, ScenarioConfig, build_node
from repro.ssd import PROTOTYPE_CAPACITY_BYTES, prototype_geometry


def test_table4_server_spec(benchmark):
    def build():
        node = build_node(ScenarioConfig(
            flash=FlashConfig(capacity_bytes=16 * 1024 * 1024),
            fleet=FleetConfig(devices_per_node=1, with_baseline_ssd=True),
        ))
        return node.describe()

    info = benchmark.pedantic(build, rounds=1, iterations=1)

    print("\n" + format_series_table(
        "Table IV — server specification",
        ["component", "value"],
        [
            ["CPU", info["host"]["cpu"]],
            ["memory", f"{info['host']['memory_gib']} GB DDR4"],
            ["OS", info["host"]["operating_system"]],
            ["off-the-shelf SSD", info["baseline_ssd"]["name"]],
            ["in-situ SSD", info["devices"][0]["name"]],
        ],
    ))

    assert "E5-2620 v4" in info["host"]["cpu"]
    assert info["host"]["memory_gib"] == 32
    assert info["devices"][0]["isc"] is True
    assert info["baseline_ssd"]["isc"] is False

    # the 24 TB prototype geometry really holds 24 TB
    geo = prototype_geometry()
    assert abs(geo.capacity_bytes - PROTOTYPE_CAPACITY_BYTES) / PROTOTYPE_CAPACITY_BYTES < 0.01
    assert geo.channels == 16
