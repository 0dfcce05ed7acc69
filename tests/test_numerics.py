"""Tensor engine tests: forward semantics, gradient oracles, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt.errors import ContractError, DimensionError, ParameterError
from nasadapt.numerics import (
    SGD,
    Adam,
    Tensor,
    backward,
    batch_norm,
    conv2d,
    count_madds,
    cross_entropy,
    no_grad,
    relu6,
    softmax,
    trace,
)

from helpers import assert_grads_close, check_gradients, finite_difference, rand_tensor


def np_softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


class TestConv2d:
    def test_identity_permutation_1x1(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, 5, 5), dtype=np.float32))
        perm = [2, 0, 1]
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for out_c, in_c in enumerate(perm):
            w[out_c, in_c, 0, 0] = 1.0
        y = conv2d(x, Tensor(w), stride=1, padding=0)
        np.testing.assert_array_equal(y.data, x.data[:, perm])

    def test_depthwise_ones_interior(self):
        x = Tensor(np.ones((1, 2, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((2, 1, 3, 3), dtype=np.float32))
        y = conv2d(x, w, stride=1, padding=1, groups=2)
        assert y.data.shape == (1, 2, 5, 5)
        assert y.data[0, 0, 2, 2] == pytest.approx(9.0)
        assert y.data[0, 1, 1, 3] == pytest.approx(9.0)

    def test_against_naive_loops(self):
        rng = np.random.default_rng(1)
        for stride, padding, groups in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 0, 4)]:
            c_in, c_out, k = 4, 4, 3 if padding < 2 else 5
            x = rng.standard_normal((2, c_in, 7, 7)).astype(np.float32)
            w = rng.standard_normal((c_out, c_in // groups, k, k)).astype(np.float32)
            got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding,
                         groups=groups).data
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            oh = (7 + 2 * padding - k) // stride + 1
            want = np.zeros((2, c_out, oh, oh), dtype=np.float64)
            cg = c_in // groups
            for n in range(2):
                for co in range(c_out):
                    g = co // (c_out // groups)
                    for i in range(oh):
                        for j in range(oh):
                            patch = xp[n, g * cg:(g + 1) * cg,
                                       i * stride:i * stride + k,
                                       j * stride:j * stride + k]
                            want[n, co, i, j] = (patch * w[co]).sum()
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_depthwise_equals_per_channel_convs(self):
        rng = np.random.default_rng(2)
        c = 4
        x = rng.standard_normal((2, c, 6, 6)).astype(np.float32)
        w = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        grouped = conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=c).data
        for ch in range(c):
            single = conv2d(Tensor(x[:, ch:ch + 1]), Tensor(w[ch:ch + 1]),
                            stride=1, padding=1).data
            np.testing.assert_allclose(grouped[:, ch:ch + 1], single, rtol=1e-5, atol=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (1, 1, 4, 4))
        w = rand_tensor(rng, (2, 1, 3, 3))
        check_gradients(lambda: conv2d(x, w, stride=1, padding=1).sum(), [x, w],
                        what="conv2d")

    def test_strided_grouped_gradients(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, (1, 4, 5, 5), scale=0.5)
        w = rand_tensor(rng, (4, 2, 3, 3), scale=0.5)
        check_gradients(
            lambda: conv2d(x, w, stride=2, padding=1, groups=2).sum(),
            [x, w], what="conv2d strided grouped")

    def test_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ParameterError):
            conv2d(x, w, stride=0)
        with pytest.raises(DimensionError):
            conv2d(x, Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32)))
        with pytest.raises(ParameterError):
            conv2d(x, Tensor(np.zeros((2, 3, 2, 2), dtype=np.float32)))

    def test_madds_counter(self):
        x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((5, 3, 3, 3), dtype=np.float32))
        with count_madds() as counter:
            conv2d(x, w, stride=2, padding=1)
        assert counter.conv_calls == 1
        assert counter.madds == 2 * 9 * 3 * 5 * 4 * 4


class TestRelu6:
    def test_values(self):
        y = relu6(Tensor(np.array([-1.0, 3.0, 9.0], dtype=np.float32)))
        np.testing.assert_array_equal(y.data, [0.0, 3.0, 6.0])

    def test_zero_is_fixed_point(self):
        x = Tensor(np.zeros((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(relu6(x).data, x.data)

    def test_gradient_mask(self):
        # keep samples away from the kinks so finite differences are valid
        vals = np.array([-3.0, -0.5, 0.5, 2.0, 5.5, 6.5, 8.0], dtype=np.float32)
        x = Tensor(vals, requires_grad=True)
        backward(relu6(x).sum())
        np.testing.assert_array_equal(x.grad, ((vals > 0) & (vals < 6)).astype(np.float32))
        numeric = finite_difference(lambda: relu6(x).sum().data, [x.data])[0]
        assert_grads_close(x.grad, numeric, what="relu6")


class TestBatchNorm:
    def _stats(self, c):
        return np.zeros(c, dtype=np.float32), np.ones(c, dtype=np.float32)

    def test_eval_identity_stats(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        mean, var = self._stats(3)
        y = batch_norm(x, gamma, beta, mean, var, training=False, eps=1e-5)
        np.testing.assert_allclose(y.data, x.data, rtol=1e-4, atol=1e-5)

    def test_train_normalizes(self):
        rng = np.random.default_rng(6)
        x = Tensor((rng.standard_normal((4, 3, 5, 5)) * 3 + 2).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        mean, var = self._stats(3)
        y = batch_norm(x, gamma, beta, mean, var, training=True).data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        x = Tensor((rng.standard_normal((4, 2, 3, 3)) + 1).astype(np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.zeros(2, dtype=np.float32))
        mean, var = self._stats(2)
        batch_norm(x, gamma, beta, mean, var, training=True, momentum=0.1)
        bm = x.data.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.1 * bm, rtol=1e-5)
        frozen_mean, frozen_var = self._stats(2)
        batch_norm(x, gamma, beta, frozen_mean, frozen_var, training=True,
                   update_stats=False)
        np.testing.assert_array_equal(frozen_mean, np.zeros(2, dtype=np.float32))

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, (2, 2, 3, 3))
        gamma = Tensor(np.ones(2, dtype=np.float32) * 1.5, requires_grad=True)
        beta = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        mean = rng.standard_normal(2).astype(np.float32) * 0.3
        var = np.ones(2, dtype=np.float32) * 1.2
        coeff = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))

        def loss():
            y = batch_norm(x, gamma, beta, mean, var, training=training,
                           update_stats=False)
            return (y * coeff).sum()

        check_gradients(loss, [x, gamma, beta], what=f"batch_norm training={training}")

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.zeros(2, dtype=np.float32))
        mean, var = self._stats(3)
        with pytest.raises(DimensionError):
            batch_norm(x, gamma, beta, mean, var, training=False)


class TestSoftmax:
    def test_uniform(self):
        y = softmax(Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_allclose(y.data, np.full(3, 1 / 3), rtol=1e-6)

    def test_overflow_safe(self):
        y = softmax(Tensor(np.array([1000.0, 0.0], dtype=np.float32)))
        assert np.isfinite(y.data).all()
        np.testing.assert_allclose(y.data, [1.0, 0.0], atol=1e-6)

    def test_shift_invariance(self):
        a = softmax(Tensor(np.array([5.0, 2.0, 7.0], dtype=np.float32))).data
        b = softmax(Tensor(np.array([105.0, 102.0, 107.0], dtype=np.float32))).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
           st.floats(min_value=-20, max_value=20))
    def test_properties(self, logits, shift):
        base = softmax(Tensor(np.array(logits, dtype=np.float32))).data
        assert abs(float(base.sum()) - 1.0) <= 1e-6
        assert (base > 0).all()
        shifted = softmax(Tensor(np.array(logits, dtype=np.float32) + np.float32(shift))).data
        np.testing.assert_allclose(base, shifted, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, (5,))
        coeff = Tensor(rng.standard_normal(5).astype(np.float32))
        check_gradients(lambda: (softmax(x) * coeff).sum(), [x], what="softmax")


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.random.default_rng(10).random((3, 4), dtype=np.float32),
                   requires_grad=True)
        backward(w.sum())
        np.testing.assert_array_equal(w.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_squares(self):
        w = rand_tensor(np.random.default_rng(11), (6,))
        backward((w * w).sum())
        np.testing.assert_allclose(w.grad, 2 * w.data, rtol=1e-6)

    def test_accumulation_without_zeroing(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        backward(w.sum())
        backward(w.sum())
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            backward(w * 2.0)

    def test_three_layer_composite(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        w1 = rand_tensor(rng, (3, 5), scale=0.5)
        w2 = rand_tensor(rng, (5, 4), scale=0.5)
        w3 = rand_tensor(rng, (4, 2), scale=0.5)

        def loss():
            h1 = relu6(x @ w1)
            h2 = relu6(h1 @ w2)
            return (softmax(h2 @ w3, axis=-1) * 0.7).sum() + (h2 * h2).mean()

        check_gradients(loss, [w1, w2, w3], what="3-layer composite")

    def test_tape_topological_order(self):
        w = rand_tensor(np.random.default_rng(13), (3,))
        y = (w * w + w).sum()
        seen = set()
        for node in trace(y):
            for t in node.inputs:
                if t.node is not None:
                    assert id(t.node) in seen, "input node must precede its consumer"
            seen.add(id(node))

    def test_no_grad_blocks_recording(self):
        w = rand_tensor(np.random.default_rng(14), (3,))
        with no_grad():
            y = (w * w).sum()
        assert y.node is None

    def test_shared_subexpression_fan_out(self):
        w = rand_tensor(np.random.default_rng(15), (4,))
        h = w * 2.0
        backward((h * h).sum() )
        np.testing.assert_allclose(w.grad, 8 * w.data, rtol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        loss = cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-6)

    def test_confident_correct(self):
        logits = np.zeros((2, 4), dtype=np.float32)
        logits[0, 1] = 50.0
        logits[1, 3] = 50.0
        loss = cross_entropy(Tensor(logits), np.array([1, 3]))
        assert loss.item() == pytest.approx(0.0, abs=1e-4)

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            cross_entropy(Tensor(np.zeros((2, 3), dtype=np.float32)), np.array([0, 3]))

    def test_gradient(self):
        rng = np.random.default_rng(16)
        logits = rand_tensor(rng, (4, 3))
        labels = np.array([0, 2, 1, 1])
        check_gradients(lambda: cross_entropy(logits, labels), [logits],
                        what="cross_entropy")


class TestOptimizers:
    def test_sgd_plain_step(self):
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([0.5, -1.0], dtype=np.float32)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.1], rtol=1e-6)

    def test_sgd_missing_grad(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            SGD([p], lr=0.1).step()

    def test_adam_first_step_magnitude(self):
        p = Tensor(np.array([0.3, -0.7], dtype=np.float32), requires_grad=True)
        p.grad = np.array([2.0, -3.0], dtype=np.float32)
        before = p.data.copy()
        Adam([p], lr=0.01).step()
        update = p.data - before
        np.testing.assert_allclose(np.abs(update), 0.01, rtol=1e-3)
        np.testing.assert_array_equal(np.sign(update), [-1.0, 1.0])

    def test_sgd_converges_on_quadratic(self):
        rng = np.random.default_rng(17)
        target = rng.standard_normal(8).astype(np.float32)
        w = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        opt = SGD([w], lr=0.1, momentum=0.0)
        for _ in range(200):
            opt.zero_grad()
            diff = w - Tensor(target)
            backward((diff * diff).sum())
            opt.step()
        assert float(np.abs(w.data - target).max()) < 1e-3

    def test_adam_converges_on_quadratic(self):
        target = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            diff = w - Tensor(target)
            backward((diff * diff).sum())
            opt.step()
        assert float(np.abs(w.data - target).max()) < 1e-2

    def test_bad_hyperparameters(self):
        p = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        with pytest.raises(ParameterError):
            SGD([p], lr=0.0)
        with pytest.raises(ParameterError):
            Adam([p], lr=0.1, weight_decay=-1.0)


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        return relu6(conv2d(x, w, stride=1, padding=1)).sum().item()

    assert run() == run()
