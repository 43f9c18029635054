"""Differentiable layers (forward / backward with cached activations).

Shapes follow a channels-first convention for sequences:

* Dense: input ``(batch, features)``.
* Conv1D: input ``(batch, in_channels, length)``, output
  ``(batch, out_channels, length - kernel_size + 1)`` (valid convolution).
"""

from __future__ import annotations

import abc

import numpy as np


def tap_ordered_sum(tap, kernel_size: int) -> np.ndarray:
    """Sum ``tap(0) … tap(kernel_size - 1)``: even taps in order, odd taps in
    order, then the two partial sums.

    This is the order in which ``np.einsum("bclk,ock->bol", ...)`` sums a
    window's taps for kernel sizes 1-7 (measured on numpy 2.4 with
    OpenBLAS; size 8 differs), so a valid convolution written as one
    product per tap keeps einsum's bits.
    Every convolution of the package, in training and at inference, sums in
    this order, so the two agree on any build.  ``tap(k)`` must return a
    fresh array; the sum is accumulated into ``tap(0)``.
    """
    total = tap(0)
    for k in range(2, kernel_size, 2):
        total += tap(k)
    if kernel_size > 1:
        odd = tap(1)
        for k in range(3, kernel_size, 2):
            odd += tap(k)
        total += odd
    return total


class Layer(abc.ABC):
    """Base class: a layer owns parameters, gradients and a cached input."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output and cache what backward needs."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and accumulate parameter gradients."""

    @property
    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (may be empty)."""
        return []

    @property
    def gradients(self) -> list[np.ndarray]:
        """Gradients matching :attr:`parameters` (same order)."""
        return []


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weights = rng.uniform(-limit, limit, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"expected input of shape (batch, {self.weights.shape[0]}), got {x.shape}"
            )
        self._input = x
        return x @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grad_weights = self._input.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class Conv1D(Layer):
    """Valid 1-D convolution over ``(batch, in_channels, length)`` inputs."""

    def __init__(
        self, in_channels: int, out_channels: int, kernel_size: int, seed: int = 0
    ) -> None:
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ValueError("channels and kernel_size must be positive")
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size
        limit = np.sqrt(6.0 / (fan_in + out_channels))
        self.kernel = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, kernel_size)
        )
        self.bias = np.zeros(out_channels)
        self.grad_kernel = np.zeros_like(self.kernel)
        self.grad_bias = np.zeros_like(self.bias)
        self.kernel_size = kernel_size
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.kernel.shape[1]:
            raise ValueError(
                f"expected input (batch, {self.kernel.shape[1]}, length), got {x.shape}"
            )
        if x.shape[2] < self.kernel_size:
            raise ValueError("input length shorter than the kernel")
        self._input = x
        out_length = x.shape[2] - self.kernel_size + 1
        # Sliding windows (batch, in_channels, out_length, kernel_size) for backward.
        self._windows = np.lib.stride_tricks.sliding_window_view(
            x, self.kernel_size, axis=2
        )
        output = tap_ordered_sum(
            lambda k: np.einsum(
                "bcl,oc->bol", x[:, :, k : k + out_length], self.kernel[:, :, k]
            ),
            self.kernel_size,
        )
        output += self.bias[None, :, None]
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        batch, in_channels, length = x.shape
        out_length = length - self.kernel_size + 1
        if grad_output.shape != (batch, self.kernel.shape[0], out_length):
            raise ValueError("grad_output shape mismatch")
        self.grad_kernel = np.einsum("bol,bclk->ock", grad_output, self._windows)
        self.grad_bias = grad_output.sum(axis=(0, 2))
        grad_input = np.zeros_like(x)
        for offset in range(self.kernel_size):
            # Each kernel tap contributes to a shifted slice of the input grad.
            grad_input[:, :, offset : offset + out_length] += np.einsum(
                "bol,oc->bcl", grad_output, self.kernel[:, :, offset]
            )
        return grad_input

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.kernel, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_kernel, self.grad_bias]


class ReLU(Layer):
    """Element-wise rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Flatten(Layer):
    """Flatten everything but the batch dimension."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._shape)
