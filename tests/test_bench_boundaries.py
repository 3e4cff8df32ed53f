"""The end-to-end benchmark's traced pass can still read what it names.

``benchmarks/e2e/layers.py`` names ``(module, class, methods)`` whose
generator methods it wraps with a span at run time, looking each one up
in the class's own ``__dict__``, and reads cumulative counters off a fleet
(PCIe bytes and busy time, FTL snapshots, flash and ECC counts).  Only the
benchmark's default, traced run touches either, so a boundary method that
is deleted, moved to a base class or made a plain function, or a counter
accessor that is deleted, fails that run and nothing else.  This checks the
same lookups the tracer makes.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_boundaries():
    return [
        (module_name, class_name, method)
        for module_name, class_name, methods in load_layers().BOUNDARIES
        for method in methods
    ]


@pytest.mark.parametrize("module_name, class_name, method", load_boundaries())
def test_boundary_is_a_generator_in_its_class_body(module_name, class_name, method):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert method in cls.__dict__, f"{class_name}.{method} is not bound in its class body"
    assert inspect.isgeneratorfunction(cls.__dict__[method]), (
        f"{class_name}.{method} is no longer a generator"
    )


@pytest.mark.parametrize("backend", ["page", "zoned"])
def test_counters_read_off_a_fleet(backend):
    from repro.config import build_fleet, preset

    fleet = build_fleet(preset("smoke", (f"device.backend={backend}",)))
    counters = load_layers()._counters(fleet)
    assert counters["events"] == fleet.sim.events_processed
    assert counters["pcie_bytes"] == 0 and counters["zone_resets"] == 0
