"""Cost model: lookup table, instrumented oracle, expected-cost consistency."""

import hashlib
import json

import numpy as np
import pytest

from nasadapt.cli import main
from nasadapt.costmodel import (
    build_madds_table,
    expected_cost,
    madds_of_discrete,
    stages_madds,
    stem_madds,
    total_loss,
)
from nasadapt.derive import default_source_architecture, derive_architecture, save_arch
from nasadapt.errors import ContractError
from nasadapt.layers import ConvChain, TensorSource, mbconv_stages, stem_stages
from nasadapt.numerics import Tensor, backward, count_madds
from nasadapt.searchspace import (
    bundled_config_path,
    channel_candidates,
    load_bundled_config,
    op_candidates,
    parse_config,
)

from helpers import assert_grads_close, random_logits


def np_softmax64(x):
    e = np.exp(np.asarray(x, dtype=np.float64) - np.max(x))
    return e / e.sum()


def np_expected_cost(alpha_arrays, beta_arrays, table):
    """Scalar-enumeration oracle in float64."""
    total = float(table.stem_cost)
    for i, costs in enumerate(table.blocks):
        p_b = np_softmax64(beta_arrays[i])
        per_c = np.zeros(costs[0].shape[0])
        for l, mat in enumerate(costs):
            p_a = np_softmax64(alpha_arrays[i][l])
            per_c += mat @ p_a
        total += float(p_b @ per_c)
    return total


def mini_config():
    doc = {
        "v": 1,
        "input_resolution": [16, 16],
        "stem": {"conv_channels": 4, "mbconv_channels": 4},
        "blocks": [{"n_max": 1, "stride": 1, "kernels": [3], "expansions": [3, 6],
                    "channels": [4, 8, 4]}],
    }
    return parse_config(json.dumps(doc))


class TestMaddsOfOp:
    def test_skip_is_free(self):
        # a skip's stage list is empty
        assert stages_madds((), 4, 4) == 0
        assert stages_madds((), 32, 32) == 0

    def test_matches_instrumented_forward(self):
        rng = np.random.default_rng(0)
        shapes = [(8, 8, 4, 4, 3, 3, 1), (4, 6, 8, 8, 5, 3, 2), (3, 5, 6, 10, 3, 6, 1)]
        for c_in, c_out, h, w, k, e, stride in shapes:
            op = ConvChain(mbconv_stages(c_in, c_out, k, e, stride), TensorSource(seed=0))
            x = Tensor(rng.standard_normal((1, c_in, h, w)).astype(np.float32))
            with count_madds() as counter:
                op(x, training=False)
            want = stages_madds(mbconv_stages(c_in, c_out, k, e, stride), h, w)
            assert counter.madds == want, (c_in, c_out, h, w, k, e, stride)
        for name in ("desk3", "table1"):
            cfg = load_bundled_config(name)
            stem = ConvChain(stem_stages(cfg.stem), TensorSource(seed=0))
            x = Tensor(np.zeros((1, 3, *cfg.input_resolution), dtype=np.float32))
            with count_madds() as counter:
                stem(x, training=False)
            assert counter.madds == stem_madds(cfg), name

    def test_expansion_one_has_no_expand_stage(self):
        rng = np.random.default_rng(1)
        op = ConvChain(mbconv_stages(6, 4, 3, 1, 1), TensorSource(seed=1))
        x = Tensor(rng.standard_normal((1, 6, 4, 4)).astype(np.float32))
        with count_madds() as counter:
            op(x, training=False)
        assert counter.madds == stages_madds(mbconv_stages(6, 4, 3, 1, 1), 4, 4)

    def test_area_scaling(self):
        op, strided = mbconv_stages(8, 8, 3, 3, 1), mbconv_stages(8, 8, 3, 3, 2)
        assert stages_madds(op, 8, 8) == 4 * stages_madds(op, 4, 4)
        assert stages_madds(strided, 8, 8) == 4 * stages_madds(strided, 4, 4)


class TestTable:
    def test_entries_nonnegative_and_skip_free(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        for spec, costs in zip(cfg.blocks, table.blocks):
            for l, mat in enumerate(costs):
                assert (mat >= 0).all()
                for oi, op in enumerate(op_candidates(spec, l)):
                    if op.kind == "skip":
                        assert (mat[:, oi] == 0).all()
                    else:
                        assert (mat[:, oi] > 0).all()

    def test_entry_matches_definition(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)

        def strided(hw, stride):
            return tuple(-(-n // stride) for n in hw)

        # each block's input plane, stated here: the stem's 3x3 conv has
        # stride 2, and only a block's first layer carries the block's stride
        sizes, hw = [], strided(cfg.input_resolution, 2)
        for spec in cfg.blocks:
            sizes.append(hw)
            hw = strided(hw, spec.stride)
        rng = np.random.default_rng(2)
        for _ in range(20):
            i = int(rng.integers(len(cfg.blocks)))
            spec = cfg.blocks[i]
            l = int(rng.integers(spec.n_max))
            ops = op_candidates(spec, l)
            oi = int(rng.integers(len(ops)))
            cands = channel_candidates(spec)
            ci = int(rng.integers(len(cands)))
            if l == 0:
                c_in, stride, (h, w) = cfg.block_input_channels(i), spec.stride, sizes[i]
            else:
                c_in, stride, (h, w) = cands[ci], 1, strided(sizes[i], spec.stride)
            op = ops[oi]
            stages = () if op.kind == "skip" else mbconv_stages(
                c_in, cands[ci], op.kernel, op.expansion, stride)
            assert table.blocks[i][l][ci, oi] == stages_madds(stages, h, w)

    def test_monotone_in_channels_table1(self):
        cfg = load_bundled_config("table1")
        table = build_madds_table(cfg)
        costs = table.blocks[0]
        cands = channel_candidates(cfg.blocks[0])
        lo, hi = 0, len(cands) - 1
        assert cands[lo] == 16 and cands[hi] == 28
        for l, mat in enumerate(costs):
            for oi, op in enumerate(op_candidates(cfg.blocks[0], l)):
                if op.kind == "mbconv":
                    assert mat[hi, oi] > mat[lo, oi]


class TestExpectedCost:
    def _logit_tensors(self, cfg, rng=None, scale=0.0):
        alphas, betas = [], []
        for spec in cfg.blocks:
            vecs = []
            for layer in range(spec.n_max):
                n = len(op_candidates(spec, layer))
                data = np.zeros(n, dtype=np.float32) if rng is None else \
                    (rng.standard_normal(n) * scale).astype(np.float32)
                vecs.append(Tensor(data, requires_grad=True))
            alphas.append(vecs)
            m = len(channel_candidates(spec))
            data = np.zeros(m, dtype=np.float32) if rng is None else \
                (rng.standard_normal(m) * scale).astype(np.float32)
            betas.append(Tensor(data, requires_grad=True))
        return alphas, betas

    def test_uniform_mini_case_is_mean_of_entries(self):
        cfg = mini_config()
        table = build_madds_table(cfg)
        alphas, betas = self._logit_tensors(cfg)
        got = float(expected_cost(alphas, betas, table).data)
        mat = table.blocks[0][0]
        assert mat.shape == (2, 2)
        want = table.stem_cost + mat.mean()
        assert got == pytest.approx(want, rel=1e-6)

    def test_one_hot_matches_discrete_50_draws(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(3)
        for _ in range(50):
            alphas, betas = self._logit_tensors(cfg)
            for vecs in alphas:
                for v in vecs:
                    v.data[int(rng.integers(v.data.shape[0]))] = 80.0
            for v in betas:
                v.data[int(rng.integers(v.data.shape[0]))] = 80.0
            arch = derive_architecture(alphas, betas, cfg)
            want = madds_of_discrete(arch, cfg)
            got = float(expected_cost(alphas, betas, table).data)
            assert got == pytest.approx(want, rel=1e-6)

    def test_random_logits_match_scalar_enumeration(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(4)
        for _ in range(10):
            alphas, betas = self._logit_tensors(cfg, rng=rng, scale=1.5)
            got = float(expected_cost(alphas, betas, table).data)
            want = np_expected_cost([[v.data for v in vecs] for vecs in alphas],
                                    [v.data for v in betas], table)
            assert got == pytest.approx(want, rel=1e-6)

    def test_gradients_match_finite_differences(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(5)
        alphas, betas = self._logit_tensors(cfg, rng=rng, scale=1.0)
        loss = expected_cost(alphas, betas, table)
        backward(loss)
        h = 1e-3
        for vecs, beta in zip(alphas, betas):
            for v in list(vecs) + [beta]:
                fd = np.zeros_like(v.data, dtype=np.float64)
                for j in range(v.data.shape[0]):
                    orig = v.data[j]
                    v.data[j] = orig + h
                    fp = np_expected_cost([[t.data for t in vs] for vs in alphas],
                                          [b.data for b in betas], table)
                    v.data[j] = orig - h
                    fm = np_expected_cost([[t.data for t in vs] for vs in alphas],
                                          [b.data for b in betas], table)
                    v.data[j] = orig
                    fd[j] = (fp - fm) / (2 * h)
                assert_grads_close(v.grad, fd, rtol=1e-3, what="expected_cost")

    def test_bounds_convex_combination(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(6)
        lo = table.stem_cost + sum(
            min(sum(mat[ci, :].min() for mat in costs)
                for ci in range(costs[0].shape[0]))
            for costs in table.blocks)
        hi = table.stem_cost + sum(
            max(sum(mat[ci, :].max() for mat in costs)
                for ci in range(costs[0].shape[0]))
            for costs in table.blocks)
        for _ in range(20):
            alphas, betas = self._logit_tensors(cfg, rng=rng, scale=3.0)
            got = float(expected_cost(alphas, betas, table).data)
            assert lo - 1e-3 <= got <= hi + 1e-3

    def test_costlier_channel_logit_increases_cost(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(7)
        alphas, betas = self._logit_tensors(cfg, rng=rng, scale=0.5)
        base = float(expected_cost(alphas, betas, table).data)
        for i in range(len(cfg.blocks)):
            betas[i].data[-1] += 0.5  # widest candidate is the costliest
            bumped = float(expected_cost(alphas, betas, table).data)
            assert bumped > base
            betas[i].data[-1] -= 0.5

    def test_index_mismatch_rejected(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        alphas, betas = self._logit_tensors(cfg)
        betas[0] = Tensor(np.zeros(99, dtype=np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            expected_cost(alphas, betas, table)


class TestTotalLoss:
    def test_lambda_zero(self):
        model = Tensor(np.float32(1.25))
        cost = Tensor(np.float32(4000.0))
        got = total_loss(model, cost, 0.0, 1.0)
        assert got.item() == pytest.approx(1.25)

    def test_zero_cost(self):
        model = Tensor(np.float32(0.5))
        got = total_loss(model, Tensor(np.float32(0.0)), 1.0, 1.0)
        assert got.item() == pytest.approx(0.5)

    def test_gradient_linearity_in_beta(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        alphas = [[Tensor(np.zeros(len(op_candidates(s, l)), dtype=np.float32))
                   for l in range(s.n_max)] for s in cfg.blocks]
        lam, norm = 0.25, float(table.stem_cost)
        beta_a = [Tensor(np.zeros(len(channel_candidates(s)), dtype=np.float32),
                         requires_grad=True) for s in cfg.blocks]
        backward(total_loss(Tensor(np.float32(2.0)),
                            expected_cost(alphas, beta_a, table),
                            lam, norm))
        beta_b = [Tensor(np.zeros(len(channel_candidates(s)), dtype=np.float32),
                         requires_grad=True) for s in cfg.blocks]
        backward(expected_cost(alphas, beta_b, table))
        for ga, gb in zip(beta_a, beta_b):
            np.testing.assert_allclose(ga.grad, gb.grad * np.float32(lam / norm),
                                       rtol=1e-5, atol=1e-9)


class TestDiscrete:
    def test_consistency_with_instrumented_forward_at_max_choice(self):
        # every block at its max candidate: table convention equals the
        # deployed network exactly
        from nasadapt.derive import instantiate

        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        net = instantiate(arch, seed=0)
        h, w = cfg.input_resolution
        x = Tensor(np.zeros((1, 3, h, w), dtype=np.float32))
        with count_madds() as counter:
            net.forward(x, training=False)
        assert counter.madds == madds_of_discrete(arch, cfg)

    def test_single_op_blocks(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        alphas = []
        betas = []
        for spec in cfg.blocks:
            vecs = []
            for layer in range(spec.n_max):
                ops = op_candidates(spec, layer)
                data = np.zeros(len(ops), dtype=np.float32)
                if layer > 0:
                    data[-1] = 80.0  # pick skip: the block keeps one op
                vecs.append(Tensor(data))
            alphas.append(vecs)
            betas.append(Tensor(np.zeros(len(channel_candidates(spec)), dtype=np.float32)))
        arch = derive_architecture(alphas, betas, cfg)
        assert all(len(b.ops) == 1 for b in arch.blocks)
        sizes_want = stem_madds(cfg) + sum(
            table.blocks[i][0][0, 0] for i in range(len(cfg.blocks)))
        assert madds_of_discrete(arch, cfg) == pytest.approx(sizes_want)

    def test_inconsistent_arch_rejected(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        bad = arch.blocks[0].__class__(channels=7, ops=arch.blocks[0].ops)
        broken = arch.__class__(input_resolution=arch.input_resolution,
                                stem=arch.stem,
                                blocks=(bad,) + arch.blocks[1:])
        with pytest.raises(ContractError):
            madds_of_discrete(broken, cfg)


# integer multiply-add counts, and so the same on every host
COST_PINS = {
    ("desk3", "source"): (473536, 90112, [213504, 99840, 70080]),
    ("desk3", "drawn"): (450112, 90112, [213504, 96576, 49920]),
    ("table1", "source"): (11032102400, 362086400, [2309606400, 1619923200, 941500800,
                                                    2382883200, 2547878400, 868224000]),
    ("table1", "drawn"): (5670900800, 362086400, [595353600, 444148800, 621873600,
                                                  895886400, 1930329600, 821222400]),
}
TABLE_SHA256 = {
    "desk3": "af0a8b5520d8c04f8ce86060ae46779aae005078b547bce8d8471170824d86ef",
    "table1": "b30bf62389c73b6c8a28a0713a22b4ad107598156476c670340a64ec0036c4ba",
}


class TestPins:
    """The integer outputs of the cost model: a change to how the table or the
    discrete cost is computed keeps every one of them."""

    @pytest.mark.parametrize("name,which", list(COST_PINS))
    def test_cost_arch_document(self, capsys, tmp_path, name, which):
        cfg = load_bundled_config(name)
        # "drawn": the argmax architecture of logits drawn from default_rng(0)
        arch = default_source_architecture(cfg) if which == "source" else \
            derive_architecture(*random_logits(cfg, np.random.default_rng(0)), cfg)
        save_arch(arch, tmp_path / "arch.json")
        assert main(["cost", "--space", str(bundled_config_path(name)),
                     "--arch", str(tmp_path / "arch.json")]) == 0
        total, stem, per_block = COST_PINS[name, which]
        assert json.loads(capsys.readouterr().out) == {
            "kind": "discrete", "total": total, "stem": stem, "per_block": per_block}

    @pytest.mark.parametrize("name", list(TABLE_SHA256))
    def test_table_bytes(self, name):
        table = build_madds_table(load_bundled_config(name))
        data = b"".join(mat.tobytes() for costs in table.blocks for mat in costs)
        assert hashlib.sha256(data).hexdigest() == TABLE_SHA256[name]
