"""Bit-exact property tests for LingXi's array shortcuts.

Each shortcut below replaces a slower computation that feeds a LingXi
decision, so it must reproduce that computation's bits, not merely its
value to a tolerance: a single ulp can flip an exit draw or move the
optimiser's next candidate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from repro.bayesopt.acquisition import (
    expected_improvement,
    probability_of_improvement,
)
from repro.bayesopt.kernels import Matern52Kernel, RBFKernel
from repro.sim.bandwidth import BandwidthModel
from repro.sim.vector import window_stats

_FINITE = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    points=st.integers(1, 300).flatmap(
        lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 20.0))
    ),
    length_scale=st.floats(0.05, 5.0),
    variance=st.floats(0.1, 3.0),
)
def test_kernel_diagonal_matches_full_matrix_bitwise(points, length_scale, variance):
    for kernel_class in (Matern52Kernel, RBFKernel):
        kernel = kernel_class(length_scale=length_scale, signal_variance=variance)
        assert _same_bits(kernel.diagonal(points), np.diag(kernel(points, points)))


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(st.floats(10.0, 50_000.0), min_size=0, max_size=8),
    rows=st.integers(1, 5),
    offset=st.integers(0, 4),
)
def test_window_stats_match_bandwidth_model_bitwise(samples, rows, offset):
    model = BandwidthModel(window=8)
    model.extend(samples)
    # Every row holds the same samples, as a strided view of a wider array.
    wide = np.full((rows, offset + len(samples) + 3), 7.0)
    wide[:, offset : offset + len(samples)] = samples
    mean, std = window_stats(wide[:, offset : offset + len(samples)])
    assert _same_bits(mean, np.full(rows, model.mean))
    assert _same_bits(std, np.full(rows, model.std))


@settings(max_examples=300, deadline=None)
@given(
    mean=arrays(float, st.integers(1, 40), elements=_FINITE),
    scale=st.floats(1e-13, 30.0),
    best=_FINITE,
    xi=st.floats(0.0, 0.1),
)
def test_acquisitions_match_scipy_stats_bitwise(mean, scale, best, xi):
    std = np.abs(np.sin(np.arange(mean.size) + 1.0)) * scale
    clipped = np.maximum(std, 1e-12)
    improvement = best - mean - xi
    z = improvement / clipped
    reference_ei = improvement * stats.norm.cdf(z) + clipped * stats.norm.pdf(z)
    assert _same_bits(expected_improvement(mean, std, best, xi), reference_ei)
    reference_pi = stats.norm.cdf((best - mean - xi) / clipped)
    assert _same_bits(probability_of_improvement(mean, std, best, xi), reference_pi)
