"""One cold-process call counter for the call-budget tests.

Host time on a hot path is noisy to measure; the Python calls it makes are
not. A cold run in a fresh process makes exactly the same calls every time,
whatever the hash seed, so a test can pin them as a constant plus a budget
per unit of work (minion, page read, page programmed, served request).

:func:`cold_calls` runs a scenario script in a fresh interpreter. The
script reads its parameters from ``sys.argv[1:]``, defines ``workload()``,
the only part profiled, and may define ``facts(result)``, a JSON-able dict
about the run computed after the profile stops. The result holds those
facts under ``"facts"`` and three roll-ups of the one cProfile run, one per
counting rule the tests use:

- ``packages``: calls into each ``repro/<package>`` (``obs``, ``faults``,
  ...; a top-level module counts under its file name);
- ``repro``: calls into any function under ``repro/``;
- ``repro_edges``: calls into or out of ``repro/``, i.e. every
  caller-to-callee edge with either end under ``repro/`` (a numpy method
  that ``repro`` code calls per page counts; numpy's own internals do not).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

HARNESS = r"""
import cProfile, json, pstats, sys

script = sys.argv.pop(1)
namespace = {"__name__": "__cold__"}
exec(compile(script, "<scenario>", "exec"), namespace)
profile = cProfile.Profile()
result = profile.runcall(namespace["workload"])
facts = namespace["facts"](result) if "facts" in namespace else {}


def repro_path(filename):
    path = filename.replace("\\", "/")
    return path.rpartition("/repro/")[2] if "/repro/" in path else None


packages, into, edges = {}, 0, 0
for (filename, _, _), (_, ncalls, _, _, callers) in pstats.Stats(profile).stats.items():
    path = repro_path(filename)
    if path is not None:
        package = path.split("/")[0]
        packages[package] = packages.get(package, 0) + ncalls
        into += ncalls
    for caller, (caller_calls, *_) in callers.items():
        if path is not None or repro_path(caller[0]) is not None:
            edges += caller_calls
print(json.dumps({"facts": facts, "packages": packages, "repro": into,
                  "repro_edges": edges}))
"""


def cold_calls(script: str, *args: object) -> dict:
    """Profile ``script``'s ``workload()`` in a fresh process run from the
    repository root with ``src`` and the root importable; ``args`` become
    its ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    out = subprocess.run(
        [sys.executable, "-c", HARNESS, script, *map(str, args)],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)
