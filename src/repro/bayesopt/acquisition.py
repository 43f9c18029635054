"""Acquisition functions for minimisation problems.

LingXi minimises the predicted exit rate, so all acquisitions below are
written for minimisation: larger acquisition values indicate more promising
candidates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density in ``scipy.stats.norm.pdf``'s own formula,
    without its argument handling, which dominates calls this small."""
    return np.exp(-(z**2) / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Expected improvement below the incumbent ``best`` (minimisation)."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * ndtr(z) + std * _norm_pdf(z)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Probability of improving on the incumbent ``best`` (minimisation)."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return ndtr((best - mean - xi) / std)


def lower_confidence_bound(mean: np.ndarray, std: np.ndarray, kappa: float = 2.0) -> np.ndarray:
    """Negative LCB so that larger is better for minimisation."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    return -(mean - kappa * std)
