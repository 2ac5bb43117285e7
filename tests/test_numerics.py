import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from submap.errors import NumericError, TooFewSamplesError
from submap.numerics import (MlpDiscriminator, bce_loss_from_logits, covariance_eigenvalues,
                             init_discriminator, mlp_sgd_step, _dropout_mask, _forward, _leaky,
                             _leaky_grad, _sgd_update, _sigmoid)
from submap.synthetic import random_orthogonal

from conftest import frozen_leaky, frozen_leaky_grad, frozen_sigmoid


class TestCovarianceEigenvalues:
    def test_rank_one_line(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        x = np.outer(rng.normal(size=30), direction)
        eig = covariance_eigenvalues(x)
        assert eig[0] > 1e-3
        assert np.all(eig[1:] <= 1e-9)
        assert np.all(eig >= 1e-12)

    def test_orthogonal_invariance(self, rng):
        x = rng.normal(size=(40, 6))
        q = random_orthogonal(6, 5)
        a = covariance_eigenvalues(x)
        b = covariance_eigenvalues(x @ q.T)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_matches_closed_form_2x2(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5], [0.0, 4.0]])
        # oracle: characteristic roots of the hand-built 2x2 covariance
        xc = x - x.mean(axis=0)
        a = (xc[:, 0] ** 2).sum() / 3
        b = (xc[:, 0] * xc[:, 1]).sum() / 3
        c = (xc[:, 1] ** 2).sum() / 3
        disc = np.sqrt(((a - c) / 2) ** 2 + b ** 2)
        expected = np.array([(a + c) / 2 + disc, (a + c) / 2 - disc])
        assert np.max(np.abs(covariance_eigenvalues(x) - expected)) < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            covariance_eigenvalues(np.ones((1, 3)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_row_permutation_invariance(self, seed):
        g = np.random.default_rng(seed)
        x = g.normal(size=(12, 4))
        perm = g.permutation(12)
        assert np.allclose(covariance_eigenvalues(x), covariance_eigenvalues(x[perm]),
                           atol=1e-10)


def finite_difference_grads(net, batch, targets, eps=1e-5):
    """Central differences of mean BCE for every parameter tensor."""
    def loss_of(n):
        return bce_loss_from_logits(_forward(n, batch, None)[3], targets)

    grads = {}
    for name in ("w1", "b1", "w2"):
        arr = getattr(net, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up, down = arr.copy(), arr.copy()
            up[idx] += eps
            down[idx] -= eps
            g[idx] = (loss_of(replace(net, **{name: up})) -
                      loss_of(replace(net, **{name: down}))) / (2 * eps)
        grads[name] = g
    grads["b2"] = (loss_of(replace(net, b2=net.b2 + eps)) -
                   loss_of(replace(net, b2=net.b2 - eps))) / (2 * eps)
    return grads


def probabilities(net, batch, mask=None):
    """The discriminator's output: the probability that each row came from
    the target distribution."""
    return _sigmoid(_forward(net, batch, mask)[3])


class TestMlp:
    def test_zero_net_outputs_half(self, rng):
        net = MlpDiscriminator(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), 0.0,
                               input_dropout=0.0)
        out = probabilities(net, rng.normal(size=(6, 3)))
        assert np.allclose(out, 0.5)

    def test_eval_mode_deterministic(self, rng):
        net = init_discriminator(5, 8, 0.3, rng)
        batch = rng.normal(size=(4, 5))
        assert np.array_equal(probabilities(net, batch), probabilities(net, batch))

    def test_single_hidden_unit_hand_computed(self):
        net = MlpDiscriminator(np.array([[2.0]]), np.array([0.3]), np.array([[-1.5]]),
                               0.25, input_dropout=0.0, leaky_slope=0.2)
        for x in (0.7, -0.9):
            z1 = 2.0 * x + 0.3
            a1 = z1 if z1 >= 0 else 0.2 * z1
            expected = 1.0 / (1.0 + np.exp(-(-1.5 * a1 + 0.25)))
            got = probabilities(net, np.array([[x]]))[0]
            assert abs(got - expected) < 1e-12

    def test_dropout_applied_only_in_train_mode(self, rng):
        net = init_discriminator(6, 4, 0.5, rng)
        batch = np.ones((200, 6))
        plain = probabilities(net, batch)
        mask = _dropout_mask(batch.shape, net.input_dropout, np.random.default_rng(7))
        dropped = probabilities(net, batch, mask)
        assert not np.allclose(plain, dropped)

    def test_sgd_zero_lr_keeps_parameters(self, rng):
        net = init_discriminator(4, 6, 0.0, rng)
        batch = rng.normal(size=(5, 4))
        updated, loss = mlp_sgd_step(net, batch, np.full(5, 0.8), 0.0,
                                     np.random.default_rng(3))
        assert np.array_equal(updated.w1, net.w1)
        assert np.array_equal(updated.w2, net.w2)
        assert loss > 0

    def test_gradients_match_finite_differences(self, rng):
        net = init_discriminator(3, 5, 0.0, rng)
        batch = rng.normal(size=(4, 3))
        targets = rng.uniform(0.1, 0.9, size=4)
        lr = 1e-7
        updated, _ = mlp_sgd_step(net, batch, targets, lr, np.random.default_rng(1))
        numeric = finite_difference_grads(net, batch, targets)
        for name in ("w1", "b1", "w2"):
            analytic = (getattr(net, name) - getattr(updated, name)) / lr
            denom = np.maximum(np.abs(numeric[name]) + np.abs(analytic), 1e-6)
            assert np.max(np.abs(analytic - numeric[name]) / denom) < 1e-4
        analytic_b2 = (net.b2 - updated.b2) / lr
        assert abs(analytic_b2 - numeric["b2"]) / max(abs(numeric["b2"]), 1e-6) < 1e-4

    def test_targets_at_outputs_leave_output_layer_fixed(self, rng):
        net = init_discriminator(3, 4, 0.0, rng)
        batch = rng.normal(size=(5, 3))
        targets = probabilities(net, batch)
        updated, _ = mlp_sgd_step(net, batch, targets, 0.5, np.random.default_rng(2))
        assert np.max(np.abs(updated.w2 - net.w2)) < 1e-12
        assert abs(updated.b2 - net.b2) < 1e-12


class TestActivations:
    """The branch-free activations against the frozen `np.where` forms,
    bit for bit (`tobytes` tells -0.0 from 0.0)."""

    EDGES = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e-300, -1e-300, 700.0, -700.0]

    def inputs(self):
        z = np.concatenate([np.random.default_rng(4).normal(size=200) * 3.0, self.EDGES])
        return z.reshape(15, 14)

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_and_its_gradient(self, slope):
        z = self.inputs()
        assert _leaky(z, slope).tobytes() == frozen_leaky(z, slope).tobytes()
        assert _leaky_grad(z, slope).dtype == np.float64
        assert _leaky_grad(z, slope).tobytes() == frozen_leaky_grad(z, slope).tobytes()

    def test_sigmoid(self):
        payload = np.uint64(0x7FF8000000000123).view(np.float64)
        z = np.concatenate([self.inputs().ravel(),
                            [np.inf, -np.inf, 746.0, -746.0, payload, -payload]])
        assert _sigmoid(z).tobytes() == frozen_sigmoid(z).tobytes()


class TestSgdUpdate:
    def test_non_finite_loss_raises(self, rng):
        net = init_discriminator(3, 4, 0.0, rng)
        grads = (np.zeros_like(net.w1), np.zeros_like(net.b1), np.zeros_like(net.w2), 0.0)
        with pytest.raises(NumericError):
            _sgd_update(net, grads, float("nan"), 0.1)

    def test_infinite_gradient_raises_at_zero_lr(self, rng):
        net = init_discriminator(3, 4, 0.0, rng)
        dw1 = np.zeros_like(net.w1)
        dw1[0, 0] = np.inf
        grads = (dw1, np.zeros_like(net.b1), np.zeros_like(net.w2), 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            _sgd_update(net, grads, 0.5, 0.0)
