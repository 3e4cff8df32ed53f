"""Traffic determinism: same seed + config digest => byte-identical scorecard.

Three layers, mirroring ``test_parallel_equivalence.py``:

* two in-process runs of the same cell produce identical payload digests,
  and the pinned ``traffic-smoke`` scorecard digest
  (``tests/golden_scorecards.txt``) never drifts silently;
* the ``traffic`` CLI prints byte-identical stdout at ``--workers 1`` and
  ``--workers 4`` (spawn workers), and a cache-hit rerun reuses results
  while printing the same bytes (``tests/test_families.py`` checks the same
  for every family at its default arguments);
* a Hypothesis property: a token bucket never admits more than
  ``capacity + rate * elapsed`` requests over any arrival sequence, and
  full-bucket eviction never changes an admission decision.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import search
from repro.apps.base import clear_payload_cache
from repro.cli import main
from repro.parallel import payload_digest
from repro.service import TenantBuckets, TokenBucket
from repro.service.drill import run_traffic_cell
from tests.test_families import golden_digests

MIXES = ("poisson", "diurnal", "bursty")


def test_traffic_cell_deterministic_in_process():
    """The second run meets a warm grep scan memo, the third a cold one;
    neither may move a byte of the scorecard."""
    first = run_traffic_cell()
    assert search._SCAN_MEMO, "the cell never reached the scan memo"
    second = run_traffic_cell()
    clear_payload_cache()
    third = run_traffic_cell()
    assert first == second == third
    assert payload_digest(first) == payload_digest(second) == payload_digest(third)


def test_traffic_smoke_scorecard_matches_pinned_golden():
    values = [run_traffic_cell(mix=mix) for mix in MIXES]
    assert payload_digest(values) == golden_digests("traffic-smoke")["scorecard"], (
        "the traffic-smoke scorecard drifted; if intentional, re-pin "
        "tests/golden_scorecards.txt"
    )


def test_traffic_cli_byte_identical_across_worker_counts(capsys):
    assert main(["traffic", "--preset", "traffic-smoke", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main([
        "traffic", "--preset", "traffic-smoke", "--workers", "4", "--no-cache",
    ]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert "scorecard digest=" in serial
    digest = golden_digests("traffic-smoke")["scorecard"]
    assert f"scorecard digest={digest}" in serial


def test_traffic_cli_cache_hit_reprints_same_bytes(tmp_path, capsys):
    argv = ["traffic", "--preset", "traffic-smoke", "--mixes", "poisson",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert cold.out == warm.out
    assert "executed=0" in warm.err  # every cell came from the cache


# -- admission-control properties -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        min_size=1, max_size=100,
    ),
    rate=st.floats(min_value=0.5, max_value=500.0),
    capacity=st.floats(min_value=1.0, max_value=32.0),
)
def test_token_bucket_never_admits_above_configured_rate(gaps, rate, capacity):
    bucket = TokenBucket(rate=rate, capacity=capacity)
    now, admitted = 0.0, 0
    for gap in gaps:
        now += gap
        if bucket.try_take(now):
            admitted += 1
    # over any window [0, T]: at most the initial burst plus rate * T
    assert admitted <= capacity + rate * now + 1e-6


@settings(max_examples=100, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1, max_size=120,
    ),
    evict_every=st.integers(min_value=1, max_value=7),
)
def test_full_bucket_eviction_is_lossless(arrivals, evict_every):
    """Evicting restorable buckets at any cadence yields exactly the same
    admission decisions as never evicting — the invariant that makes
    million-tenant populations affordable."""
    evicting, reference = TenantBuckets(), TenantBuckets()
    now = 0.0
    for index, (gap, tenant) in enumerate(arrivals):
        now += gap
        a = evicting.allow(tenant, rate=20.0, capacity=3.0, now=now)
        b = reference.allow(tenant, rate=20.0, capacity=3.0, now=now)
        assert a == b
        if index % evict_every == 0:
            evicting.evict_restorable(now)
    assert len(evicting._buckets) <= len(reference._buckets)
