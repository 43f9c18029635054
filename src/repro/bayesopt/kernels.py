"""Covariance kernels for Gaussian-process regression."""

from __future__ import annotations

import numpy as np


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("inputs must have the same dimensionality")
    return np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T


def _self_sq_dists(x: np.ndarray) -> np.ndarray:
    """The diagonal of ``_pairwise_sq_dists(x, x)``, bit for bit.

    Built with the same operations, so it carries the same rounding
    residue: both norm terms, then the diagonal of the same ``(2.0 * x) @
    x.T`` product (a gemm call, as in the full matrix).  The closed form
    (zero), ``einsum`` or a per-row dot would round differently.
    """
    x = np.atleast_2d(x)
    norms = np.sum(x**2, axis=1)
    return norms + norms - np.diagonal(2.0 * x @ x.T)


class RBFKernel:
    """Squared-exponential kernel ``s^2 * exp(-||x-y||^2 / (2 l^2))``."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0) -> None:
        if length_scale <= 0 or signal_variance <= 0:
            raise ValueError("length_scale and signal_variance must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row sets ``a`` and ``b``."""
        return self._covariance(np.maximum(_pairwise_sq_dists(a, b), 0.0))

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        """``np.diag(self(x, x))`` bit for bit, evaluating only the diagonal."""
        return self._covariance(np.maximum(_self_sq_dists(x), 0.0))

    def _covariance(self, sq: np.ndarray) -> np.ndarray:
        return self.signal_variance * np.exp(-0.5 * sq / self.length_scale**2)


class Matern52Kernel:
    """Matérn kernel with smoothness 5/2 (a common BO default)."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0) -> None:
        if length_scale <= 0 or signal_variance <= 0:
            raise ValueError("length_scale and signal_variance must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row sets ``a`` and ``b``."""
        return self._covariance(np.maximum(_pairwise_sq_dists(a, b), 0.0))

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        """``np.diag(self(x, x))`` bit for bit, evaluating only the diagonal."""
        return self._covariance(np.maximum(_self_sq_dists(x), 0.0))

    def _covariance(self, sq: np.ndarray) -> np.ndarray:
        distance = np.sqrt(sq)
        scaled = np.sqrt(5.0) * distance / self.length_scale
        return self.signal_variance * (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)
