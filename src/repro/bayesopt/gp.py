"""Gaussian-process regression with a Cholesky solve."""

from __future__ import annotations

import numpy as np

from repro.bayesopt.kernels import RBFKernel


class GaussianProcess:
    """Zero-mean GP regression surrogate.

    Observations are internally centred on their mean, which keeps the
    zero-mean assumption harmless for exit-rate surfaces whose baseline is far
    from zero.
    """

    def __init__(self, kernel=None, noise: float = 1e-4) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel or RBFKernel()
        self.noise = noise
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._alpha: np.ndarray | None = None
        self._cholesky: np.ndarray | None = None

    @property
    def num_observations(self) -> int:
        """Number of fitted observations."""
        return 0 if self._x is None else self._x.shape[0]

    def fit(
        self, x: np.ndarray, y: np.ndarray, noise_scale: np.ndarray | None = None
    ) -> "GaussianProcess":
        """Fit the GP to observations ``x`` (n, d) and targets ``y`` (n,).

        ``noise_scale`` optionally scales the observation-noise variance per
        observation (``noise * noise_scale[i]`` on the diagonal): values above
        1 soften an observation's pull on the posterior, which is how decayed
        warm-start trials enter the online optimizer as weaker evidence.  The
        default (all ones) reproduces the homoscedastic fit exactly.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[0] == 0:
            raise ValueError("need at least one observation")
        if noise_scale is None:
            noise_diag = np.full(x.shape[0], self.noise + 1e-10)
        else:
            noise_scale = np.asarray(noise_scale, dtype=float).ravel()
            if noise_scale.shape[0] != x.shape[0]:
                raise ValueError("noise_scale must have one entry per observation")
            if np.any(noise_scale <= 0):
                raise ValueError("noise_scale entries must be positive")
            noise_diag = (self.noise + 1e-10) * noise_scale
        self._x = x
        self._y_mean = float(y.mean())
        centred = y - self._y_mean
        covariance = self.kernel(x, x) + np.diag(noise_diag)
        # Add jitter until the Cholesky succeeds (degenerate repeated points).
        jitter = 0.0
        for _ in range(6):
            try:
                self._cholesky = np.linalg.cholesky(covariance + jitter * np.eye(x.shape[0]))
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-8)
        else:
            raise np.linalg.LinAlgError("covariance matrix is not positive definite")
        self._alpha = np.linalg.solve(
            self._cholesky.T, np.linalg.solve(self._cholesky, centred)
        )
        return self

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points ``x``.

        The prior variance comes from ``kernel.diagonal(x)``: the diagonal of
        ``kernel(x, x)`` bit for bit, the pairwise-distance formula's rounding
        residue included (so not the closed-form ``signal_variance``), without
        evaluating the kernel on all ``n × n`` pairs.
        """
        if self._x is None or self._alpha is None or self._cholesky is None:
            raise RuntimeError("predict called before fit")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cross = self.kernel(x, self._x)
        mean = cross @ self._alpha + self._y_mean
        v = np.linalg.solve(self._cholesky, cross.T)
        prior_var = self.kernel.diagonal(x)
        variance = np.maximum(prior_var - np.sum(v**2, axis=0), 1e-12)
        return mean, np.sqrt(variance)
