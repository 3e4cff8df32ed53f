"""Exact small-sample quantile mode of the obs Histogram.

p999 over a few hundred observations is meaningless under bucket
interpolation; with ``exact_limit`` the histogram keeps a bounded
reservoir of raw samples and reports numpy-identical quantiles until the
series outgrows the limit, at which point it degrades (permanently) to
the existing bucket interpolation.  The default (``exact_limit=0``) is
bit-identical to the historical behaviour — the regression tests in
``test_obs_metrics.py`` run against it unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry


def _histogram(exact_limit, buckets=(0.001, 0.01, 0.1, 1.0)):
    return MetricsRegistry().histogram(
        "lat", buckets=buckets, exact_limit=exact_limit
    )


def test_exact_mode_matches_numpy_quantiles():
    hist = _histogram(exact_limit=2048)
    values = [((i * 37) % 1000) / 1000 + 0.001 for i in range(1000)]
    for v in values:
        hist.observe(v)
    for q in (0.5, 0.99, 0.999):
        assert hist.percentile(q) == pytest.approx(
            float(np.percentile(values, q * 100)), rel=1e-12
        )


def test_exact_mode_tail_quantiles_at_small_n():
    """The motivating case: 10 samples, p999 must report (essentially) the
    maximum, not a bucket-interpolated fiction."""
    hist = _histogram(exact_limit=64)
    values = [0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.05, 0.9]
    for v in values:
        hist.observe(v)
    assert hist.percentile(0.5) == pytest.approx(float(np.percentile(values, 50)))
    assert hist.percentile(0.999) == pytest.approx(
        float(np.percentile(values, 99.9))
    )
    assert hist.percentile(0.999) > 0.89  # right next to the max
    assert hist.percentile(0.0) == pytest.approx(0.002)
    assert hist.percentile(1.0) == pytest.approx(0.9)


def test_exact_mode_degrades_permanently_beyond_limit():
    hist = _histogram(exact_limit=5)
    for v in (0.002, 0.003, 0.004, 0.005, 0.006, 0.007):
        hist.observe(v)  # sixth observation overflows the reservoir
    reference = _histogram(exact_limit=0)
    for v in (0.002, 0.003, 0.004, 0.005, 0.006, 0.007):
        reference.observe(v)
    # after degrading, quantiles equal the plain bucket interpolation
    for q in (0.0, 0.5, 0.99, 1.0):
        assert hist.percentile(q) == pytest.approx(reference.percentile(q))
    state = hist._values[()]
    assert state.samples is None  # reservoir dropped, memory bounded


def test_exact_limit_zero_keeps_no_reservoir():
    hist = _histogram(exact_limit=0)
    hist.observe(0.005)
    assert hist._values[()].samples is None
    # existing min/max interpolation paths still the estimator
    assert 0.001 < hist.percentile(0.5) <= 0.01


def test_aggregate_percentile_exact_across_label_sets():
    hist = _histogram(exact_limit=64)
    for v in (0.002, 0.004):
        hist.observe(v, device="d0")
    for v in (0.006, 0.008):
        hist.observe(v, device="d1")
    pooled = [0.002, 0.004, 0.006, 0.008]
    for q in (0.5, 0.999):
        assert hist.aggregate_percentile(q) == pytest.approx(
            float(np.percentile(pooled, q * 100))
        )


def test_aggregate_percentile_falls_back_when_any_series_degraded():
    hist = _histogram(exact_limit=3)
    for v in (0.002, 0.003, 0.004, 0.005):  # overflows: reservoir dropped
        hist.observe(v, device="d0")
    hist.observe(0.006, device="d1")  # still exact
    reference = _histogram(exact_limit=0)
    for v in (0.002, 0.003, 0.004, 0.005):
        reference.observe(v, device="d0")
    reference.observe(0.006, device="d1")
    assert hist.aggregate_percentile(0.5) == pytest.approx(
        reference.aggregate_percentile(0.5)
    )


def test_labelled_histogram_feeds_the_reservoir():
    hist = _histogram(exact_limit=16)
    for v in (0.002, 0.9):
        hist.observe(v, device="d0")
    assert hist.percentile(0.5, device="d0") == pytest.approx(0.451)


def test_exact_limit_rejects_negative():
    with pytest.raises(ValueError):
        _histogram(exact_limit=-1)
