"""Tensor engine tests: forward semantics, gradient oracles, optimizers."""

import gc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt import layers
from nasadapt.derive import default_source_architecture, instantiate
from nasadapt.errors import ContractError, DimensionError, ParameterError
from nasadapt.layers import ConvChain, TensorSource, mbconv_stages
from nasadapt.numerics import (
    SGD,
    Adam,
    Tensor,
    backward,
    batch_norm,
    conv2d,
    count_madds,
    cross_entropy,
    matmul,
    no_grad,
    relu6,
    softmax,
    trace,
)
from nasadapt.numerics import tensor as engine
from nasadapt.numerics.optim import ADAM_BETAS, ADAM_EPS, SGD_MOMENTUM
from nasadapt.searchloop import ARCH_LR, ARCH_WEIGHT_DECAY, W_LR, W_WEIGHT_DECAY
from nasadapt.searchspace import load_bundled_config
from nasadapt.supernet import build_supernet
from nasadapt.toytask import ProxyHead, model_loss

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
        y = batch_norm(x, gamma, beta, mean, var, training=False)
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
        batch_norm(x, gamma, beta, mean, var, training=True)
        bm = x.data.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.1 * bm, rtol=1e-5)
        frozen_mean, frozen_var = self._stats(2)
        batch_norm(x, gamma, beta, frozen_mean, frozen_var, training=True,
                   update_stats=False)
        np.testing.assert_array_equal(frozen_mean, np.zeros(2, dtype=np.float32))

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, (2, 2, 3, 3))
        gamma = Tensor(np.ones(2, dtype=np.float32) * 1.5, requires_grad=True)
        beta = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        mean = rng.standard_normal(2).astype(np.float32) * 0.3
        var = np.ones(2, dtype=np.float32) * 1.2
        coeff = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))

        def loss():
            y = batch_norm(x, gamma, beta, mean, var, training=True, update_stats=False)
            return (y * coeff).sum()

        check_gradients(loss, [x, gamma, beta], what="batch_norm train")

    @pytest.mark.parametrize("shape", [(1, 3, 1, 1), (2, 3, 2, 2)], ids=["one-entry", "2x2"])
    def test_train_gradients_on_the_smallest_planes(self, shape):
        # one entry per channel normalizes to 0 whatever x is, so dx and
        # dgamma are 0; on 2x2 planes each channel holds 8 entries
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, shape)
        gamma = Tensor(np.array([1.5, 0.5, -1.0], dtype=np.float32), requires_grad=True)
        beta = Tensor(np.array([0.0, 0.3, -0.2], dtype=np.float32), requires_grad=True)
        mean, var = self._stats(3)
        coeff = Tensor(rng.standard_normal(shape).astype(np.float32))

        def loss():
            y = batch_norm(x, gamma, beta, mean, var, training=True, update_stats=False)
            return (y * coeff).sum()

        check_gradients(loss, [x, gamma, beta], what=f"batch_norm train {shape}")
        if shape[0] * shape[2] * shape[3] == 1:
            assert not x.grad.any() and not gamma.grad.any()

    def test_train_epilogue_gradients_on_2x2_planes(self):
        # the fused relu6 on one tape node; the outputs stay 0.05 or more
        # from both kinks, so the finite differences never step across one
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, (2, 3, 2, 2))
        gamma = Tensor(np.array([4.0, 2.5, -3.0], dtype=np.float32), requires_grad=True)
        beta = Tensor(np.array([3.0, 0.5, 2.0], dtype=np.float32), requires_grad=True)
        mean, var = self._stats(3)
        coeff = Tensor(rng.standard_normal((2, 3, 2, 2)).astype(np.float32))

        def loss():
            y = batch_norm(x, gamma, beta, mean, var, training=True, update_stats=False,
                           relu6=True)
            return (y * coeff).sum()

        y = batch_norm(x, gamma, beta, mean, var, training=True, update_stats=False).data
        assert (y < -0.05).any() and (y > 6.05).any()
        assert np.minimum(np.abs(y), np.abs(y - 6)).min() >= 0.05
        check_gradients(loss, [x, gamma, beta], what="batch_norm train relu6 2x2")

    def _eval_case(self, stats):
        """N(0, 1) input, gamma/beta and running statistics: unit ones, or
        the ones one train pass over other data leaves."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 6, 7)).astype(np.float32)
        gamma = (rng.standard_normal(5) + 1.0).astype(np.float32)
        beta = rng.standard_normal(5).astype(np.float32)
        mean, var = self._stats(5)
        if stats == "train-pass":
            other = (rng.standard_normal((4, 5, 6, 7)) * 2 + 0.5).astype(np.float32)
            batch_norm(Tensor(other), Tensor(gamma), Tensor(beta), mean, var, training=True)
            assert (mean != 0).all() and (var != 1).all()
        return x, gamma, beta, mean, var

    @pytest.mark.parametrize("stats", ["unit", "train-pass"])
    def test_eval_matches_float64_normalization(self, stats):
        x, gamma, beta, mean, var = self._eval_case(stats)
        with no_grad():
            got = batch_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta),
                             mean, var, training=False)
        assert got.node is None
        # against the four-pass normalization in float64: a few roundings of
        # each term, bounded by 8 unit roundoffs of |x s| + |mean s| + |beta|;
        # the flush moves only a value below sqrt(tiny), by less than that
        s = gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + engine.BN_EPS)
        c = (slice(None), None, None)
        want = (x - mean[c]) * s[c] + beta[c]
        bound = 8 * 2.0 ** -24 * (np.abs(x * s[c]) + np.abs(mean * s)[c] + np.abs(beta)[c])
        assert (np.abs(got.data - want) <= bound).all()

    def test_unrecorded_eval_flushes_exactly_the_values_below_the_floor(self):
        tiny, floor = np.finfo(np.float32).tiny, engine._FLUSH_FLOOR
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 3, 4, 6)).astype(np.float32)
        x[0, 0, 0] = [np.nextafter(floor, 0), floor, -floor, tiny, 2 * tiny, -1e-44]
        x[0, 1, 0] = [1e-39, -1e-39, 0.0, -0.0, 1e30, -1e30]
        # channel 0 has s = 1 and t = 0, so its results are its inputs; channel
        # 2 has s = 0 and t = floor: every output is exactly the floor
        gamma = np.array([1.0, 0.5, 0.0], np.float32)
        beta = np.array([0.0, 0.0, floor], np.float32)
        mean = np.zeros(3, np.float32)
        var = np.array([1 - 1e-5, 1.0, 1.0], np.float32)
        with no_grad():
            y = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), mean, var,
                           training=False).data
        s = gamma * (1.0 / np.sqrt(var + np.float32(engine.BN_EPS)))
        assert s[0] == 1.0
        plain = x * s[:, None, None]
        plain += (beta - mean * s)[:, None, None]
        small = np.abs(plain) < floor
        assert (small & (plain != 0)).sum() >= 6  # nonzero affine results below the floor
        assert (small & (np.abs(plain) >= tiny)).sum() >= 3  # normal ones among them
        assert (y[small] == 0.0).all() and not np.signbit(y[small]).any()
        assert y[~small].tobytes() == plain[~small].tobytes()
        assert list(y[0, 0, 0, :3]) == [0.0, floor, -floor]
        assert (y[0, 2] == floor).all()

    def test_unrecorded_eval_leaves_its_input_alone(self):
        x, gamma, beta, mean, var = self._eval_case("train-pass")
        x[0, 0, 0, :3] = [1e-39, -1e-40, 0.0]
        before = x.tobytes()
        with no_grad():
            y = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), mean, var,
                           training=False)
        assert x.tobytes() == before and not np.shares_memory(x, y.data)
        # not recorded because no input needs a gradient, grad mode on
        y2 = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), mean, var, training=False)
        assert y2.node is None and y2.data.tobytes() == y.data.tobytes()
        assert x.tobytes() == before

    def _edge_case(self):
        """Eval inputs whose affine ``x * s + t`` gives results of exactly 0
        and 6, subnormals, a normal below the flush floor, -0.0 and NaN,
        beside N(0, 9) ones: s = 0 in channels 0-2, so t (6, +0.0, -0.0) is
        added to +-0.0."""
        tiny = np.finfo(np.float32).tiny
        rng = np.random.default_rng(14)
        x = (rng.standard_normal((2, 5, 3, 4)) * 3).astype(np.float32)
        x[0, 3, 0] = [tiny / 4, -tiny / 3, 1e-39, -1e-39]
        x[0, 3, 1, 0] = 1e-30
        x[1, 4, 0] = [np.nan, -0.0, 6.0, 0.0]
        x[1, 0, 0, 0] = np.nan
        gamma = np.array([0.0, 0.0, 0.0, 1.0, 2.0], np.float32)
        beta = np.array([6.0, 0.0, -0.0, 0.0, 1.0], np.float32)
        mean, var = self._stats(5)
        s = gamma * (1.0 / np.sqrt(var + np.float32(engine.BN_EPS)))
        plain = x * s[:, None, None] + (beta - mean * s)[:, None, None]
        for edge in (plain == 0.0, plain == 6.0, (plain == 0.0) & np.signbit(plain),
                     np.isnan(plain), (plain != 0.0) & (np.abs(plain) < tiny),
                     (np.abs(plain) >= tiny) & (np.abs(plain) < engine._FLUSH_FLOOR)):
            assert edge.any()
        return x, gamma, beta, mean, var

    def test_eval_epilogue_is_relu6_of_batch_norm_bit_for_bit(self):
        x, gamma, beta, mean, var = self._edge_case()

        def norm(**kw):
            with no_grad():
                return batch_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta),
                                  mean, var, training=False, **kw)

        want = relu6(norm()).data.view(np.uint32)
        assert np.array_equal(norm(relu6=True).data.view(np.uint32), want)
        # and written over the input, as a conv chain asks
        own = x.copy()
        with no_grad():
            over = batch_norm(Tensor(own), Tensor(gamma), Tensor(beta), mean, var,
                              training=False, relu6=True, out=own)
        assert np.shares_memory(over.data, own)
        assert np.array_equal(own.view(np.uint32), want)

    @pytest.mark.parametrize("relu6_", [False, True], ids=["plain", "relu6"])
    @pytest.mark.parametrize("mode", ["train", "unrecorded-eval"])
    def test_no_mode_writes_its_input(self, mode, relu6_):
        x, gamma, beta, mean, var = self._edge_case()
        before = x.tobytes()
        with no_grad() if mode == "unrecorded-eval" else nullcontext():
            y = batch_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta),
                           mean, var, training=mode == "train", relu6=relu6_)
        assert (y.node is None) == (mode == "unrecorded-eval")
        assert x.tobytes() == before and not np.shares_memory(x, y.data)

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
            h1 = relu6(matmul(x, w1))
            h2 = relu6(matmul(h1, w2))
            return (softmax(matmul(h2, w3), axis=-1) * 0.7).sum() + (h2 * h2).mean()

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

    @pytest.mark.parametrize("network", ["supernet", "discrete"])
    def test_train_step_leaves_no_cyclic_garbage(self, network):
        # a step's graph must be freed by reference counting alone, the
        # moment its loss goes out of scope
        cfg = load_bundled_config("desk3")
        if network == "supernet":
            net = build_supernet(cfg, seed=0)
            params = net.weight_params()
        else:
            net = instantiate(default_source_architecture(cfg), seed=0)
            params = net.params()
        head = ProxyHead(net.final_channels, 4, seed=0)
        opt = SGD(params + head.params(), lr=0.01)
        images = np.random.default_rng(16).random((4, 3, 32, 32), dtype=np.float32)

        def step():
            loss = model_loss(net.forward(Tensor(images))[-1], head, np.arange(4))
            opt.zero_grad()
            backward(loss)
            opt.step()

        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()


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

    def test_sgd_momentum_fixed(self):
        # goes with the `SGD(momentum=...)` shim: delete both together
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ParameterError, match="momentum"):
            SGD([p], lr=0.1, momentum=0.0)

    def test_sgd_missing_grad(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            SGD([p], lr=0.1).step()

    @pytest.mark.parametrize("make", [lambda ps: SGD(ps, lr=0.1, weight_decay=0.01),
                                      lambda ps: Adam(ps, lr=0.01, weight_decay=0.01)],
                             ids=["sgd", "adam"])
    def test_failed_step_moves_nothing(self, make):
        # b has no gradient: the step raises before a, a moment or the step count moves
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        opt = make([a, b])
        a.grad, b.grad = np.array([0.5, -1.0], np.float32), np.array([2.0], np.float32)
        opt.step()  # one good step, so every moment exists

        def state():
            moments = [getattr(opt, name, None) for name in ("_momentum", "_m", "_v")]
            return [a.data.tobytes(), b.data.tobytes(), getattr(opt, "_t", None)] + \
                [None if m is None else m.tobytes() for m in moments]

        a.grad, b.grad = np.array([0.25, 0.75], np.float32), None
        before = state()
        with pytest.raises(ContractError, match="missing gradient"):
            opt.step()
        assert state() == before

    @pytest.mark.parametrize("group", ["weights-sgd", "logits-adam"])
    def test_flat_group_matches_per_tensor_rules(self, group):
        # desk3's two search groups, against the update rules applied one tensor
        # at a time; every element must come out bit for bit the same
        net = build_supernet(load_bundled_config("desk3"), seed=0)
        if group == "weights-sgd":
            params = net.weight_params() + ProxyHead(net.final_channels, 4, seed=0).params()
            opt = SGD(params, lr=W_LR, weight_decay=W_WEIGHT_DECAY)
        else:
            params = net.arch_params()
            opt = Adam(params, lr=ARCH_LR, weight_decay=ARCH_WEIGHT_DECAY)
        assert all(np.shares_memory(p.data, opt._data) for p in params)
        lr, wd = np.float32(opt.lr), np.float32(opt.weight_decay)
        b1, b2 = (np.float32(b) for b in ADAM_BETAS)
        ref = [p.data.copy() for p in params]
        moments = [[np.zeros_like(r), np.zeros_like(r)] for r in ref]
        rng = np.random.default_rng(18)
        for t in range(1, 6):
            grads = [(rng.standard_normal(r.shape) * 0.1).astype(np.float32) for r in ref]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for r, g, m in zip(ref, grads, moments):
                if group == "weights-sgd":
                    g = g + wd * r
                    m[0] = g.copy() if t == 1 else m[0] * np.float32(SGD_MOMENTUM) + g
                    r -= lr * m[0]
                else:
                    m[0] = m[0] * b1 + (1 - b1) * g
                    m[1] = m[1] * b2 + (1 - b2) * g * g
                    mhat = m[0] / np.float32(1.0 - ADAM_BETAS[0] ** t)
                    vhat = m[1] / np.float32(1.0 - ADAM_BETAS[1] ** t)
                    r -= np.float32(opt.lr * opt.weight_decay) * r
                    r -= lr * mhat / (np.sqrt(vhat) + np.float32(ADAM_EPS))
            assert all(np.array_equal(p.data, r) for p, r in zip(params, ref)), f"step {t}"

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
        opt = SGD([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            diff = w + Tensor(-target)
            backward((diff * diff).sum())
            opt.step()
        assert float(np.abs(w.data - target).max()) < 1e-3

    def test_adam_converges_on_quadratic(self):
        target = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        w = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            diff = w + Tensor(-target)
            backward((diff * diff).sum())
            opt.step()
        assert float(np.abs(w.data - target).max()) < 1e-2

    def test_bad_hyperparameters(self):
        p = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        with pytest.raises(ParameterError):
            SGD([p], lr=0.0)
        with pytest.raises(ParameterError):
            Adam([p], lr=0.1, weight_decay=-1.0)


@pytest.mark.parametrize("mode", ["train", "recorded-eval", "unrecorded-eval"])
def test_conv_chain_reuses_only_its_unrecorded_eval_conv_outputs(monkeypatch, mode):
    # every stage's batch norm result is a fresh array, except in an eval
    # forward, where it is written over the conv output: the chain runs it
    # under no_grad even when grad mode is on and its tensors need gradients
    # ("recorded-eval", the inputs a recorded forward would take)
    chain = ConvChain(mbconv_stages(4, 6, 3, 3, 1), TensorSource(seed=0))
    x = np.random.default_rng(15).standard_normal((2, 4, 6, 6)).astype(np.float32)
    before = x.tobytes()
    convs, norms, conv, norm = [], [], layers.conv2d, layers.batch_norm
    monkeypatch.setattr(layers, "conv2d", lambda *a, **kw: convs.append(conv(*a, **kw))
                        or convs[-1])
    monkeypatch.setattr(layers, "batch_norm", lambda *a, **kw: norms.append(norm(*a, **kw))
                        or norms[-1])
    with no_grad() if mode == "unrecorded-eval" else nullcontext():
        out = chain(Tensor(x), training=mode == "train")
    assert x.tobytes() == before
    assert (out.node is None) == (mode != "train")
    assert [np.shares_memory(c.data, b.data) for c, b in zip(convs, norms)] == \
        [mode != "train"] * 3


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        return relu6(conv2d(x, w, stride=1, padding=1)).sum().item()

    assert run() == run()
