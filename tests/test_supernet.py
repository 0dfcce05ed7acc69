"""Supernet relaxation: mixed ops, channel masks, shared-block equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt.errors import ContractError, ParameterError
from nasadapt.numerics import Tensor, backward, count_madds, no_grad
from nasadapt.numerics.container import load_tensors, save_tensors
from nasadapt.searchspace import channel_candidates, load_bundled_config, parse_config
from nasadapt.supernet import (
    build_masks,
    build_supernet,
    load_logits,
    logit_lengths,
    mixed_block_forward,
    mixed_op_forward,
)

import json


def np_softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def single_block_config(channels=(2, 8, 2), n_max=2, stride=1, kernels=(3,),
                        expansions=(3,), stem=(4, 4), resolution=(16, 16)):
    doc = {
        "v": 1,
        "input_resolution": list(resolution),
        "stem": {"conv_channels": stem[0], "mbconv_channels": stem[1]},
        "blocks": [{"n_max": n_max, "stride": stride, "kernels": list(kernels),
                    "expansions": list(expansions), "channels": list(channels)}],
    }
    return parse_config(json.dumps(doc))


class TestBuildMasks:
    def test_non_overlapping_two_candidates(self):
        masks = build_masks([2, 4], "non_overlapping")
        np.testing.assert_array_equal(masks, [[1, 1, 0, 0], [0, 0, 1, 1]])

    def test_overlapping_two_candidates(self):
        masks = build_masks([2, 4], "overlapping")
        np.testing.assert_array_equal(masks, [[1, 1, 0, 0], [1, 1, 1, 1]])

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            build_masks([2, 4], "diagonal")

    def test_mask_bank_collects_blocks(self):
        net = build_supernet(load_bundled_config("desk3"), seed=0)
        assert len(net.blocks) == 3
        for spec, block in zip(net.config.blocks, net.blocks):
            widths = channel_candidates(spec)
            assert block.masks.shape == (len(widths), widths[-1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 32), min_size=1, max_size=6, unique=True))
    def test_partition_and_nesting(self, raw):
        cands = sorted(raw)
        non = build_masks(cands, "non_overlapping")
        np.testing.assert_array_equal(non.sum(axis=0), np.ones(cands[-1]))
        over = build_masks(cands, "overlapping")
        for m in range(1, len(cands)):
            assert (over[m] >= over[m - 1]).all()
            assert over[m].sum() > over[m - 1].sum()


class TestBuildSupernet:
    def test_table1_shape(self):
        net = build_supernet(load_bundled_config("table1"), seed=0)
        assert len(net.blocks) == 6
        assert [len(b.masks) for b in net.blocks] == [7, 11, 13, 15, 33, 37]
        assert [len(vecs) for vecs in net.alpha] == [4, 4, 4, 4, 4, 1]
        from nasadapt.numerics import softmax

        seven = net.alpha[0][1]  # layer 2: six mbconv variants plus skip
        assert seven.data.shape == (7,)
        np.testing.assert_allclose(softmax(seven).data, np.full(7, 1 / 7), rtol=1e-6)

    def test_uniform_softmax_at_init(self):
        net = build_supernet(load_bundled_config("desk3"), seed=0)
        vec = net.alpha[0][1]
        n = vec.data.shape[0]
        assert n == 3  # two mbconv variants plus skip
        from nasadapt.numerics import softmax

        np.testing.assert_allclose(softmax(vec).data, np.full(n, 1.0 / n), rtol=1e-6)
        assert all((v.data == 0).all() for v in net.beta)

    def test_same_seed_bit_identical(self):
        cfg = load_bundled_config("desk3")
        a = build_supernet(cfg, seed=11)
        b = build_supernet(cfg, seed=11)
        for (name_a, ta), (name_b, tb) in zip(a.named_weight_params(),
                                              b.named_weight_params()):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes(), name_a

    @pytest.mark.parametrize("name, edit", [
        ("alpha/1/0", "missing"),
        ("stem/conv/bn/var", "missing"),
        ("block2/layer0/op1/project/weight", "wrong-shape"),
    ])
    def test_from_arrays_names_a_bad_tensor(self, name, edit):
        cfg = load_bundled_config("desk3")
        arrays = build_supernet(cfg, seed=0).to_arrays()
        if edit == "missing":
            del arrays[name]
        else:
            arrays[name] = arrays[name][:-1]
        with pytest.raises(ContractError, match=f"'{name}'"):
            build_supernet(cfg, arrays=arrays)

    def test_from_arrays_copies_every_tensor(self):
        cfg = load_bundled_config("desk3")
        arrays = build_supernet(cfg, seed=4).to_arrays()
        net = build_supernet(cfg, arrays=arrays)
        got = net.to_arrays()
        assert list(got) == list(arrays)
        for name, arr in arrays.items():
            assert got[name].tobytes() == arr.tobytes(), name
            assert not np.shares_memory(got[name], arr), name

    def test_different_seed_differs(self):
        cfg = load_bundled_config("desk3")
        a = build_supernet(cfg, seed=1)
        b = build_supernet(cfg, seed=2)
        assert a.stem.weight["conv"].data.tobytes() != b.stem.weight["conv"].data.tobytes()


class TestLoadLogits:
    def test_reads_what_a_supernet_saved(self, tmp_path):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=0)
        rng = np.random.default_rng(3)
        for v in net.arch_params():
            v.data[...] = rng.standard_normal(v.data.shape)
        net.save(tmp_path / "net.nat")
        alpha, beta = load_logits(tmp_path / "net.nat", cfg)
        assert [len(vecs) for vecs in alpha] == [len(vecs) for vecs in net.alpha]
        got = [v for vecs in alpha for v in vecs] + beta
        for loaded, saved in zip(got, net.arch_params(), strict=True):
            assert loaded.data.tobytes() == saved.data.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_logit(self, tmp_path, value):
        cfg = load_bundled_config("desk3")
        arrays = build_supernet(cfg, seed=0).to_arrays()
        arrays = {name: arrays[name] for name in logit_lengths(cfg)}
        arrays["alpha/1/1"][0] = value
        save_tensors(tmp_path / "bad.nat", arrays)
        with pytest.raises(ContractError, match="bad.nat: 'alpha/1/1' holds a non-finite"):
            load_logits(tmp_path / "bad.nat", cfg)

    def test_rejects_a_wrong_length(self, tmp_path):
        cfg = load_bundled_config("desk3")
        arrays = build_supernet(cfg, seed=0).to_arrays()
        arrays = {name: arrays[name] for name in logit_lengths(cfg)}
        arrays["beta/1"] = np.zeros(arrays["beta/1"].shape[0] + 1, dtype=np.float32)
        save_tensors(tmp_path / "bad.nat", arrays)
        with pytest.raises(ContractError, match="'beta/1' has shape"):
            load_logits(tmp_path / "bad.nat", cfg)


class TestMixedOp:
    def _layer(self, seed=0):
        cfg = single_block_config(channels=(4, 4, 1), n_max=2, kernels=(3, 5))
        net = build_supernet(cfg, seed=seed)
        return net, net.blocks[0].layers[1]  # layer 2: mbconv k3, k5, skip

    def test_one_hot_saturation(self):
        net, layer = self._layer()
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        for chosen in range(len(layer)):
            logits = np.zeros(len(layer), dtype=np.float32)
            logits[chosen] = 50.0
            mixed = mixed_op_forward(x, layer, Tensor(logits), training=False)
            alone = layer[chosen](x, False, None)
            np.testing.assert_allclose(mixed.data, alone.data, atol=1e-4)

    def test_uniform_equals_mean(self):
        net, layer = self._layer(seed=3)
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        mixed = mixed_op_forward(x, layer, Tensor(np.zeros(3, dtype=np.float32)),
                                 training=False)
        mean = np.mean([op(x, False, None).data for op in layer], axis=0)
        np.testing.assert_allclose(mixed.data, mean, atol=1e-5)

    def test_random_logits_match_explicit_sum(self):
        net, layer = self._layer(seed=4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = Tensor(rng.standard_normal((2, 4, 5, 5)).astype(np.float32))
            logits = rng.standard_normal(3).astype(np.float32)
            mixed = mixed_op_forward(x, layer, Tensor(logits), training=False)
            p = np_softmax(logits)
            oracle = sum(p[o] * layer[o](x, False, None).data
                         for o in range(len(layer)))
            np.testing.assert_allclose(mixed.data, oracle, atol=1e-5)


class TestMixedBlock:
    def test_single_candidate_mask_is_identity(self):
        cfg = single_block_config(channels=(6, 6, 1), n_max=2)
        net = build_supernet(cfg, seed=5)
        block = net.blocks[0]
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        alphas = [Tensor(rng.standard_normal(len(l)).astype(np.float32))
                  for l in block.layers]
        out = mixed_block_forward(x, block, alphas, net.beta[0], training=False)
        h = x
        for layer, logits in zip(block.layers, alphas):
            h = mixed_op_forward(h, layer, logits, training=False)
        np.testing.assert_array_equal(out.data, h.data)

    def test_uniform_beta_scales_by_1_over_m(self):
        cfg = single_block_config(channels=(2, 8, 2), n_max=1)
        net = build_supernet(cfg, seed=6)
        block = net.blocks[0]
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        alphas = [Tensor(np.zeros(len(l), dtype=np.float32))
                  for l in block.layers]
        beta = Tensor(np.zeros(4, dtype=np.float32))
        out = mixed_block_forward(x, block, alphas, beta, training=False)
        h = x
        for layer, logits in zip(block.layers, alphas):
            h = mixed_op_forward(h, layer, logits, training=False)
        np.testing.assert_allclose(out.data, h.data / 4.0, rtol=1e-5, atol=1e-6)

    def test_one_hot_beta_passes_own_segment(self):
        cfg = single_block_config(channels=(2, 6, 2), n_max=1)
        net = build_supernet(cfg, seed=7)
        block = net.blocks[0]
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        alphas = [Tensor(np.zeros(len(l), dtype=np.float32))
                  for l in block.layers]
        h = x
        for layer, logits in zip(block.layers, alphas):
            h = mixed_op_forward(h, layer, logits, training=False)
        # candidates [2, 4, 6]; choose m=1 -> segment channels [2, 4)
        beta = np.zeros(3, dtype=np.float32)
        beta[1] = 50.0
        out = mixed_block_forward(x, block, alphas, Tensor(beta), training=False).data
        np.testing.assert_allclose(out[:, 2:4], h.data[:, 2:4], atol=1e-4)
        np.testing.assert_allclose(out[:, :2], 0.0, atol=1e-4 * np.abs(h.data).max())
        np.testing.assert_allclose(out[:, 4:], 0.0, atol=1e-4 * np.abs(h.data).max())

    @pytest.mark.parametrize("mode", ["non_overlapping", "overlapping"])
    def test_shared_block_equivalence_oracle(self, mode):
        """Masked single pass equals the per-candidate zero-padded weighted sum."""
        cfg = single_block_config(channels=(2, 8, 2), n_max=2, kernels=(3,))
        net = build_supernet(cfg, seed=8, mask_mode=mode)
        block = net.blocks[0]
        rng = np.random.default_rng(6)
        for trial in range(3):
            x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
            alphas = [Tensor(rng.standard_normal(len(l)).astype(np.float32))
                      for l in block.layers]
            beta = rng.standard_normal(len(block.masks)).astype(np.float32)
            got = mixed_block_forward(x, block, alphas, Tensor(beta),
                                      training=False).data
            p = np_softmax(beta)
            oracle = np.zeros_like(got)
            for m in range(len(block.masks)):
                h = x
                for layer, logits in zip(block.layers, alphas):
                    h = mixed_op_forward(h, layer, logits, training=False)
                masked = h.data * block.masks[m][None, :, None, None]
                oracle += p[m] * masked
            np.testing.assert_allclose(got, oracle, atol=1e-5)

    def test_width_mismatch_rejected(self):
        cfg = single_block_config(channels=(6, 6, 1), n_max=1)
        net = build_supernet(cfg, seed=20)
        block = net.blocks[0]
        bad = Tensor(np.zeros((1, 7, 6, 6), dtype=np.float32))
        alphas = [Tensor(np.zeros(len(l), dtype=np.float32))
                  for l in block.layers]
        from nasadapt.errors import DimensionError

        with pytest.raises(DimensionError):
            mixed_block_forward(bad, block, alphas, net.beta[0], training=False)

    def test_operation_count_independent_of_m(self):
        rng = np.random.default_rng(7)
        x_np = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        calls = []
        for channels in [(8, 8, 1), (4, 8, 4), (2, 8, 2)]:  # M = 1, 2, 4
            cfg = single_block_config(channels=channels, n_max=2)
            net = build_supernet(cfg, seed=9)
            block = net.blocks[0]
            alphas = [Tensor(np.zeros(len(l), dtype=np.float32))
                      for l in block.layers]
            beta = Tensor(np.zeros(len(block.masks), dtype=np.float32))
            with count_madds() as counter:
                mixed_block_forward(Tensor(x_np), block, alphas, beta, training=False)
            calls.append(counter.conv_calls)
        assert calls[0] == calls[1] == calls[2]


class TestSupernetForward:
    def test_desk_spatial_sizes(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=10)
        rng = np.random.default_rng(8)
        x = rng.random((2, 3, 32, 32), dtype=np.float32)
        feats = net.forward(x, training=False)
        assert [f.data.shape[2:] for f in feats] == [(8, 8), (4, 4), (2, 2)]
        assert [f.data.shape[1] for f in feats] == [16, 16, 24]

    def test_zero_input_finite(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=11)
        feats = net.forward(np.zeros((1, 3, 32, 32), dtype=np.float32), training=False)
        assert all(np.isfinite(f.data).all() for f in feats)

    def test_duplicated_sample_duplicates_outputs(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=12)
        rng = np.random.default_rng(9)
        x = rng.random((1, 3, 32, 32), dtype=np.float32)
        batch = np.concatenate([x, x], axis=0)
        feats = net.forward(batch, training=False)
        for f in feats:
            np.testing.assert_allclose(f.data[0], f.data[1], rtol=1e-5, atol=1e-6)

    def test_gradient_reach_and_decoupling(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=13)
        rng = np.random.default_rng(10)
        x = rng.random((2, 3, 32, 32), dtype=np.float32)
        coeff = None
        feats = net.forward(x, training=True)
        coeff = Tensor(rng.standard_normal(feats[-1].data.shape).astype(np.float32))
        loss = (feats[-1] * coeff).sum()
        backward(loss)
        for vecs in net.alpha:
            for v in vecs:
                assert v.grad is not None and np.isfinite(v.grad).all()
        for v in net.beta:
            assert v.grad is not None and np.isfinite(v.grad).all()
            if v.data.shape[0] >= 2:
                assert not np.allclose(v.grad, v.grad[0]), \
                    "beta gradients should differ across candidates"

    def test_argmax_invariance_under_logit_shift(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=14)
        rng = np.random.default_rng(11)
        for vecs in net.alpha:
            for v in vecs:
                v.data[...] = rng.standard_normal(v.data.shape).astype(np.float32)
        for v in net.beta:
            v.data[...] = rng.standard_normal(v.data.shape).astype(np.float32)
        x = rng.random((1, 3, 32, 32), dtype=np.float32)
        with no_grad():
            base = net.forward(x, training=False)[-1].data.copy()
            for vecs in net.alpha:
                for v in vecs:
                    v.data += np.float32(3.7)
            for v in net.beta:
                v.data += np.float32(-2.1)
            shifted = net.forward(x, training=False)[-1].data
        np.testing.assert_allclose(base, shifted, atol=1e-5)

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=15)
        rng = np.random.default_rng(12)
        for v in net.beta:
            v.data[...] = rng.standard_normal(v.data.shape).astype(np.float32)
        path = tmp_path / "supernet.nat"
        net.save(path)
        other = build_supernet(cfg, arrays=load_tensors(path))
        arrays = other.to_arrays()
        for name, a in net.to_arrays().items():
            assert a.tobytes() == arrays[name].tobytes(), name
