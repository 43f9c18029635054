"""Tests for the numpy neural-network framework."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nn import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    MeanSquaredError,
    MultiBranchNetwork,
    ReLU,
    SGD,
    Sequential,
    SoftmaxCrossEntropy,
    accuracy_score,
    balanced_undersample,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    stratified_split,
)
from repro.nn.losses import softmax


def numerical_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = f()
        flat[i] = original - eps
        down = f()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestLayers:
    def test_dense_shapes_and_gradient(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, seed=1)
        x = rng.normal(size=(5, 4))
        out = layer.forward(x)
        assert out.shape == (5, 3)
        grad_out = rng.normal(size=(5, 3))
        grad_in = layer.backward(grad_out)
        assert grad_in.shape == x.shape

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        numeric = numerical_gradient(loss, layer.weights)
        np.testing.assert_allclose(layer.grad_weights, numeric, atol=1e-4)

    def test_dense_rejects_bad_input(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))
        with pytest.raises(RuntimeError):
            Dense(4, 3).backward(np.zeros((2, 3)))

    def test_conv1d_shapes_and_gradient(self):
        rng = np.random.default_rng(0)
        layer = Conv1D(2, 3, kernel_size=3, seed=2)
        x = rng.normal(size=(4, 2, 8))
        out = layer.forward(x)
        assert out.shape == (4, 3, 6)
        grad_out = rng.normal(size=out.shape)
        grad_in = layer.backward(grad_out)
        assert grad_in.shape == x.shape

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        numeric = numerical_gradient(loss, layer.kernel)
        np.testing.assert_allclose(layer.grad_kernel, numeric, atol=1e-4)
        numeric_input = numerical_gradient(loss, x)
        np.testing.assert_allclose(grad_in, numeric_input, atol=1e-4)

    def test_conv1d_rejects_short_input(self):
        layer = Conv1D(1, 2, kernel_size=4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 3)))

    def test_relu_and_flatten(self):
        relu = ReLU()
        x = np.asarray([[-1.0, 2.0], [3.0, -4.0]])
        out = relu.forward(x)
        np.testing.assert_allclose(out, [[0.0, 2.0], [3.0, 0.0]])
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])
        flat = Flatten()
        y = flat.forward(np.zeros((2, 3, 4)))
        assert y.shape == (2, 12)
        assert flat.backward(y).shape == (2, 3, 4)


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(6, 4))
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(6))

    def test_cross_entropy_matches_manual(self):
        loss_fn = SoftmaxCrossEntropy()
        logits = np.asarray([[2.0, 0.0], [0.0, 3.0]])
        labels = np.asarray([0, 1])
        loss = loss_fn.forward(logits, labels)
        manual = -np.mean(
            [np.log(softmax(logits)[0, 0]), np.log(softmax(logits)[1, 1])]
        )
        assert loss == pytest.approx(manual)
        grad = loss_fn.backward()
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        labels = np.asarray([0, 2, 3])
        loss_fn = SoftmaxCrossEntropy()

        def loss():
            return loss_fn.forward(logits, labels)

        loss()
        analytic = loss_fn.backward()
        numeric = numerical_gradient(loss, logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_mse(self):
        mse = MeanSquaredError()
        value = mse.forward(np.asarray([1.0, 2.0]), np.asarray([0.0, 0.0]))
        assert value == pytest.approx(2.5)
        grad = mse.backward()
        np.testing.assert_allclose(grad, [1.0, 2.0])
        with pytest.raises(ValueError):
            mse.forward(np.zeros(2), np.zeros(3))


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", [SGD(learning_rate=0.1), Adam(learning_rate=0.1)])
    def test_minimizes_quadratic(self, optimizer):
        x = np.asarray([5.0])
        for _ in range(200):
            grad = 2 * x
            optimizer.step([x], [grad])
        assert abs(x[0]) < 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SGD().step([np.zeros(2)], [np.zeros(3)])
        with pytest.raises(ValueError):
            Adam().step([np.zeros(2)], [])

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class TestNetworks:
    def test_sequential_learns_linearly_separable(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        labels = (x[:, 0] + x[:, 1] > 0).astype(int)
        net = Sequential([Dense(2, 16, seed=1), ReLU(), Dense(16, 2, seed=2)])
        loss_fn = SoftmaxCrossEntropy()
        optimizer = Adam(learning_rate=0.05)
        for _ in range(150):
            loss_fn.forward(net.forward(x), labels)
            net.backward(loss_fn.backward())
            optimizer.step(net.parameters, net.gradients)
        assert accuracy_score(labels, net.predict(x)) > 0.9

    def test_multibranch_shapes(self):
        net = MultiBranchNetwork(num_features=5, length=8, channels=8, hidden=16, seed=0)
        x = np.random.default_rng(0).normal(size=(6, 5, 8))
        logits = net.forward(x)
        assert logits.shape == (6, 2)
        probabilities = net.predict_proba(x)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(6))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 4, 8)))

    def test_multibranch_fit_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(120, 5, 8))
        labels = (x[:, 2, :].sum(axis=1) > 0).astype(int)
        net = MultiBranchNetwork(channels=8, hidden=16, seed=1)
        losses = net.fit(x, labels, epochs=8, batch_size=32, learning_rate=3e-3, seed=0)
        assert losses[-1] < losses[0]
        assert accuracy_score(labels, net.predict(x)) > 0.7

    def test_multibranch_kernel_validation(self):
        with pytest.raises(ValueError):
            MultiBranchNetwork(length=3, kernel_size=4)


@functools.lru_cache(maxsize=1)  # each parametrized case reuses one pair
def _inference_networks(channels: int, hidden: int, kernel_size: int):
    """A fresh network and a copy of it after one epoch of ``fit``."""
    fresh = MultiBranchNetwork(
        channels=channels, hidden=hidden, kernel_size=kernel_size, seed=kernel_size
    )
    trained = copy.deepcopy(fresh)
    rng = np.random.default_rng(kernel_size)
    trained.fit(
        rng.normal(size=(96, 5, 8)), rng.integers(0, 2, 96), epochs=1, batch_size=32
    )
    return fresh, trained


class TestInferenceIdentity:
    """NN-INFER-014: inference is ``forward``'s arithmetic without its caches."""

    @pytest.mark.parametrize("kernel_size", range(1, 9))
    @pytest.mark.parametrize("channels,hidden", [(8, 16), (64, 64)])
    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(1, 256),
        scale=st.sampled_from([1e-3, 1.0, 40.0]),
        seed=st.integers(0, 2**16),
    )
    @example(batch=1, scale=1.0, seed=0)
    @example(batch=256, scale=1.0, seed=1)
    def test_predict_is_forward_bit_for_bit(
        self, channels, hidden, kernel_size, batch, scale, seed
    ):
        x = scale * np.random.default_rng(seed).normal(size=(batch, 5, 8))
        for net in _inference_networks(channels, hidden, kernel_size):
            logits = net.forward(x)
            np.testing.assert_array_equal(net.predict_proba(x), softmax(logits))
            np.testing.assert_array_equal(net.predict(x), np.argmax(logits, axis=1))

    def test_inference_leaves_training_caches_alone(self):
        rng = np.random.default_rng(3)
        net = MultiBranchNetwork(channels=8, hidden=16, seed=3)
        x = rng.normal(size=(6, 5, 8))
        other = rng.normal(size=(9, 5, 8))
        grad = rng.normal(size=(6, 2))
        net.forward(x)
        net.backward(grad)
        expected = [g.copy() for g in net.gradients]
        net.forward(x)
        net.predict_proba(other)
        net.predict(other)
        net.backward(grad)
        for got, want in zip(net.gradients, expected):
            np.testing.assert_array_equal(got, want)

    def test_inference_reads_the_live_kernels(self):
        # Adam updates parameters in place; a cached copy would go stale.
        rng = np.random.default_rng(4)
        net = MultiBranchNetwork(channels=8, hidden=16, seed=4)
        x = rng.normal(size=(5, 5, 8))
        before = net.predict_proba(x)
        for param in net.parameters:
            param += rng.normal(scale=0.1, size=param.shape)
        after = net.predict_proba(x)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, softmax(net.forward(x)))


class TestMetrics:
    def test_known_values(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        assert accuracy_score(y_true, y_pred) == pytest.approx(0.6)
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)
        matrix = confusion_matrix(y_true, y_pred)
        assert matrix.sum() == 5
        assert matrix[1, 1] == 2

    def test_degenerate_cases(self):
        assert precision_score([0, 0], [0, 0]) == 0.0
        assert recall_score([0, 0], [0, 1]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0
        with pytest.raises(ValueError):
            accuracy_score([], [])
        with pytest.raises(ValueError):
            accuracy_score([1], [1, 0])

    def test_report_keys(self):
        report = classification_report([0, 1], [0, 1])
        assert set(report) == {"accuracy", "precision", "recall", "f1"}

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=50),
        st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=50),
    )
    def test_metrics_bounded(self, y_true, y_pred):
        n = min(len(y_true), len(y_pred))
        y_true, y_pred = y_true[:n], y_pred[:n]
        for metric in (accuracy_score, precision_score, recall_score, f1_score):
            assert 0.0 <= metric(y_true, y_pred) <= 1.0


class TestSampling:
    def test_stratified_split_preserves_classes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        labels = np.asarray([0] * 80 + [1] * 20)
        x_train, y_train, x_test, y_test = stratified_split(x, labels, 0.25, seed=1)
        assert x_train.shape[0] + x_test.shape[0] == 100
        assert set(np.unique(y_test)) == {0, 1}
        assert abs(np.mean(y_test) - 0.2) < 0.05

    def test_balanced_undersample_equalizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(90, 2))
        labels = np.asarray([0] * 75 + [1] * 15)
        x_bal, y_bal = balanced_undersample(x, labels, seed=2)
        assert y_bal.sum() == 15
        assert len(y_bal) == 30

    def test_single_class_passthrough(self):
        x = np.zeros((5, 2))
        labels = np.zeros(5)
        x_out, y_out = balanced_undersample(x, labels)
        assert len(y_out) == 5

    def test_split_validation(self):
        with pytest.raises(ValueError):
            stratified_split(np.zeros((4, 1)), np.zeros(4), test_fraction=1.5)
        with pytest.raises(ValueError):
            balanced_undersample(np.zeros((4, 1)), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=2, max_value=20))
    def test_balanced_counts_property(self, majority, minority):
        rng = np.random.default_rng(0)
        labels = np.asarray([0] * majority + [1] * minority)
        x = rng.normal(size=(labels.size, 2))
        _x_bal, y_bal = balanced_undersample(x, labels, seed=0)
        counts = np.bincount(y_bal, minlength=2)
        assert counts[0] == counts[1] == min(majority, minority)
