"""Device backends must be invisible to minion computation.

The same staged corpus and the same commands run once against the
page-mapped FTL and once against the zoned (ZNS) backend: every minion's
status and stdout must match byte for byte.  The backend is a *storage*
axis — it changes where pages land, how GC reclaims space, and therefore
timing — but never *what* is computed.  The scorecard digests the
``backends`` verb prints are pinned in ``tests/golden_scorecards.txt``
so CI notices when either backend's observable behaviour moves.
"""

from __future__ import annotations

import pytest

from repro.analysis.backends import BACKEND_APPS, backend_cell
from repro.config import preset, to_dict
from repro.parallel import payload_digest
from tests.test_families import golden_digests

BACKENDS = ("page", "zoned")
SMOKE = to_dict(preset("smoke"))


@pytest.fixture(scope="module")
def cells():
    """All comparison cells on the default smoke scenario, verb order."""
    return [
        backend_cell(backend, app, SMOKE)
        for backend in BACKENDS
        for app in BACKEND_APPS
    ]


def _by(cells, backend, app):
    return next(c for c in cells if c["backend"] == backend and c["app"] == app)


def test_minion_results_are_backend_independent(cells):
    for app in BACKEND_APPS:
        page = _by(cells, "page", app)
        zoned = _by(cells, "zoned", app)
        assert page["minions"] == zoned["minions"]
        assert page["output_digest"] == zoned["output_digest"], (
            f"{app}: minion output depends on the device backend"
        )


def test_zoned_cells_report_zone_telemetry(cells):
    for app in BACKEND_APPS:
        zoned = _by(cells, "zoned", app)
        zones = zoned["zones"]
        assert zones["per_device"] >= 3
        assert zones["resets"] >= 0 and zones["retired"] == 0
        assert "zones" not in _by(cells, "page", app)


def test_backend_cell_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown device backend"):
        backend_cell("hybrid", "grep", SMOKE)


def test_scorecard_digests_match_golden(cells):
    """Recompute the ``backends`` verb's digest lines and diff the golden.

    The golden lines are the trailing digest lines of
    ``python -m repro backends`` on the default smoke cell set; re-pin them
    (and explain the drift) whenever backend-observable behaviour changes.
    """
    digests = {
        backend: payload_digest([c for c in cells if c["backend"] == backend])
        for backend in BACKENDS
    }
    digests["scorecard"] = payload_digest(cells)
    assert digests == golden_digests("backends"), (
        "backend scorecard digests drifted from tests/golden_scorecards.txt; "
        "re-pin with: python -m repro backends (trailing digest lines)"
    )
