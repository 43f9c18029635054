"""Network containers: ``Sequential`` and the branched architecture of Figure 7."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Conv1D, Dense, Flatten, Layer, ReLU, tap_ordered_sum
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.optimizers import Adam


class Sequential:
    """A plain stack of layers with forward/backward and a classifier head."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("need at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run all layers in order."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers in reverse order."""
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    @property
    def parameters(self) -> list[np.ndarray]:
        """All trainable parameters, layer by layer."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters)
        return params

    @property
    def gradients(self) -> list[np.ndarray]:
        """All gradients, aligned with :attr:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients)
        return grads

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return softmax(self.forward(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class predictions."""
        return np.argmax(self.forward(x), axis=1)


class MultiBranchNetwork:
    """The exit-predictor architecture of Figure 7.

    One Conv1D(1 → ``channels``, ``kernel_size``) + ReLU branch per input
    feature row, flattened and merged, followed by a ``hidden``-unit fully
    connected layer and a final ``num_classes`` output layer.

    Input shape: ``(batch, num_features, length)`` — the paper uses 5 features
    (bitrate, throughput, stall time, stall interval, stall-exit interval)
    over a length-8 window.
    """

    def __init__(
        self,
        num_features: int = 5,
        length: int = 8,
        channels: int = 64,
        kernel_size: int = 4,
        hidden: int = 64,
        num_classes: int = 2,
        seed: int = 0,
    ) -> None:
        if num_features <= 0 or length <= 0:
            raise ValueError("num_features and length must be positive")
        if kernel_size > length:
            raise ValueError("kernel_size cannot exceed the window length")
        self.num_features = num_features
        self.length = length
        self.branches: list[Sequential] = []
        for i in range(num_features):
            self.branches.append(
                Sequential(
                    [
                        Conv1D(1, channels, kernel_size, seed=seed + i),
                        ReLU(),
                        Flatten(),
                    ]
                )
            )
        branch_width = channels * (length - kernel_size + 1)
        self.head = Sequential(
            [
                Dense(branch_width * num_features, hidden, seed=seed + 100),
                ReLU(),
                Dense(hidden, num_classes, seed=seed + 200),
            ]
        )
        self._branch_width = branch_width

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1] != self.num_features or x.shape[2] != self.length:
            raise ValueError(
                f"expected input (batch, {self.num_features}, {self.length}), got {x.shape}"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of shape (batch, num_classes); caches what backward needs."""
        self._check_input(x)
        merged = [
            branch.forward(x[:, i : i + 1, :]) for i, branch in enumerate(self.branches)
        ]
        return self.head.forward(np.concatenate(merged, axis=1))

    def backward(self, grad_output: np.ndarray) -> None:
        """Back-propagate into every branch."""
        grad_merged = self.head.backward(grad_output)
        for i, branch in enumerate(self.branches):
            start = i * self._branch_width
            branch.backward(grad_merged[:, start : start + self._branch_width])

    @property
    def parameters(self) -> list[np.ndarray]:
        """All trainable parameters."""
        params: list[np.ndarray] = []
        for branch in self.branches:
            params.extend(branch.parameters)
        params.extend(self.head.parameters)
        return params

    @property
    def gradients(self) -> list[np.ndarray]:
        """All gradients, aligned with :attr:`parameters`."""
        grads: list[np.ndarray] = []
        for branch in self.branches:
            grads.extend(branch.gradients)
        grads.extend(self.head.gradients)
        return grads

    def _inference_logits(self, x: np.ndarray) -> np.ndarray:  # contract: NN-INFER-014
        """:meth:`forward`'s logits, bit for bit, without its training caches.

        The branch convolutions, one per feature, run as one product per
        kernel tap on a ``(features, channels, positions × batch)`` array,
        summed in ``Conv1D.forward``'s order (:func:`tap_ordered_sum`).  Viewed as
        ``(features × channels × positions, batch)``, its rows are the merged
        columns of :meth:`forward`, so the head's first GEMM takes the
        transposed view.  The kernels are read from the live layers on every
        call: Adam updates them in place.
        """
        self._check_input(x)
        convs = [branch.layers[0] for branch in self.branches]
        channels, _, kernel_size = convs[0].kernel.shape
        batch = x.shape[0]
        out_length = self.length - kernel_size + 1
        kernels = np.concatenate([conv.kernel for conv in convs]).reshape(
            self.num_features, channels, kernel_size, 1
        )
        # (features, 1, length × batch): position-major, batch-minor columns.
        columns = np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(
            self.num_features, 1, -1
        )
        activations = tap_ordered_sum(
            lambda k: kernels[:, :, k]
            * columns[:, :, k * batch : (k + out_length) * batch],
            kernel_size,
        )
        activations += np.concatenate([conv.bias for conv in convs]).reshape(
            self.num_features, channels, 1
        )
        np.maximum(activations, 0.0, out=activations)
        first, last = self.head.layers[0], self.head.layers[-1]
        merged = activations.reshape(first.weights.shape[0], batch).T
        hidden = merged @ first.weights
        hidden += first.bias
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ last.weights
        logits += last.bias
        return logits

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities (inference: no training cache)."""
        return softmax(self._inference_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class predictions (inference: no training cache)."""
        return np.argmax(self._inference_logits(x), axis=1)

    def fit(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        epochs: int = 20,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        seed: int = 0,
        verbose: bool = False,
    ) -> list[float]:
        """Train with Adam on softmax cross-entropy; returns per-epoch losses."""
        if x.shape[0] != np.asarray(labels).shape[0]:
            raise ValueError("x and labels must have the same number of rows")
        optimizer = Adam(learning_rate=learning_rate)
        loss_fn = SoftmaxCrossEntropy()
        rng = np.random.default_rng(seed)
        losses = []
        n = x.shape[0]
        labels = np.asarray(labels)
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                logits = self.forward(x[idx])
                loss = loss_fn.forward(logits, labels[idx])
                self.backward(loss_fn.backward())
                optimizer.step(self.parameters, self.gradients)
                epoch_loss += loss
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs} loss={losses[-1]:.4f}")
        return losses
