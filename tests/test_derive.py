"""Architecture derivation: argmax collapse, JSON round trip, instantiation."""

import numpy as np
import pytest

from nasadapt.costmodel import build_madds_table, madds_of_discrete
from nasadapt.derive import (
    arch_from_json,
    arch_to_json,
    default_source_architecture,
    derive_architecture,
    instantiate,
)
from nasadapt.errors import ParseError
from nasadapt.numerics import Tensor
from nasadapt.searchspace import channel_candidates, load_bundled_config, op_candidates
from nasadapt.supernet import build_supernet


def zero_logits(cfg):
    alphas = [[np.zeros(len(op_candidates(s, l + 1)), dtype=np.float32)
               for l in range(s.n_max)] for s in cfg.blocks]
    betas = [np.zeros(len(channel_candidates(s)), dtype=np.float32) for s in cfg.blocks]
    return alphas, betas


class TestDerive:
    def test_all_zero_logits_tie_break(self):
        cfg = load_bundled_config("desk3")
        alphas, betas = zero_logits(cfg)
        arch = derive_architecture(alphas, betas, cfg)
        for block, spec in zip(arch.blocks, cfg.blocks):
            assert block.channels == channel_candidates(spec)[0]
            assert len(block.ops) == spec.n_max  # skip is last, never wins a tie
            first = op_candidates(spec, 1)[0]
            for j, op in enumerate(block.ops):
                assert (op.kernel, op.expansion) == (first.kernel, first.expansion)
                assert op.stride == (spec.stride if j == 0 else 1)

    def test_skip_votes_shrink_depth(self):
        cfg = load_bundled_config("table1")
        alphas, betas = zero_logits(cfg)
        for vecs, spec in zip(alphas, cfg.blocks):
            for l in range(1, spec.n_max):
                vecs[l][-1] = 50.0  # skip wins on layers 2..n_max
        arch = derive_architecture(alphas, betas, cfg)
        assert [len(b.ops) for b in arch.blocks] == [1, 1, 1, 1, 1, 1]

    def test_table1_beta_maxima(self):
        cfg = load_bundled_config("table1")
        alphas, betas = zero_logits(cfg)
        for b in betas:
            b[-1] = 50.0
        arch = derive_architecture(alphas, betas, cfg)
        assert [b.channels for b in arch.blocks] == [28, 48, 72, 128, 256, 400]

    def test_accepts_supernet_tensors(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=0)
        arch = derive_architecture(net.alpha, net.beta, cfg)
        assert len(arch.blocks) == 3

    def test_idempotent_and_shift_invariant(self):
        cfg = load_bundled_config("desk3")
        rng = np.random.default_rng(0)
        alphas, betas = zero_logits(cfg)
        for vecs in alphas:
            for v in vecs:
                v += rng.standard_normal(v.shape).astype(np.float32)
        for b in betas:
            b += rng.standard_normal(b.shape).astype(np.float32)
        first = derive_architecture(alphas, betas, cfg)
        assert derive_architecture(alphas, betas, cfg) == first
        shifted_a = [[v + np.float32(4.2) for v in vecs] for vecs in alphas]
        shifted_b = [b - np.float32(1.3) for b in betas]
        assert derive_architecture(shifted_a, shifted_b, cfg) == first

    def test_derived_cost_within_attainable_range(self):
        cfg = load_bundled_config("desk3")
        table = build_madds_table(cfg)
        rng = np.random.default_rng(1)
        alphas, betas = zero_logits(cfg)
        for vecs in alphas:
            for v in vecs:
                v += rng.standard_normal(v.shape).astype(np.float32)
        for b in betas:
            b += rng.standard_normal(b.shape).astype(np.float32)
        arch = derive_architecture(alphas, betas, cfg)
        cost = madds_of_discrete(arch, cfg)

        def one_hot(scale):
            a = [[Tensor((scale * (v == v.max())).astype(np.float32)) for v in vecs]
                 for vecs in alphas]
            return a

        # extremes of the attainable range via one-hot enumeration bounds
        lo = table.stem_cost + sum(
            min(sum(mat[ci, :].min() for mat in costs.layer_costs)
                for ci in range(len(costs.channel_cands)))
            for costs in table.blocks)
        hi = table.stem_cost + sum(
            max(sum(mat[ci, :].max() for mat in costs.layer_costs)
                for ci in range(len(costs.channel_cands)))
            for costs in table.blocks)
        assert lo <= cost <= hi


class TestArchJson:
    def test_round_trip(self):
        cfg = load_bundled_config("desk3")
        rng = np.random.default_rng(2)
        for _ in range(5):
            alphas, betas = zero_logits(cfg)
            for vecs in alphas:
                for v in vecs:
                    v += rng.standard_normal(v.shape).astype(np.float32)
            for b in betas:
                b += rng.standard_normal(b.shape).astype(np.float32)
            arch = derive_architecture(alphas, betas, cfg)
            assert arch_from_json(arch_to_json(arch)) == arch

    def test_unknown_kind_named(self):
        cfg = load_bundled_config("desk3")
        text = arch_to_json(default_source_architecture(cfg))
        broken = text.replace('"kind": "mbconv"', '"kind": "warp"', 1)
        with pytest.raises(ParseError, match="unknown operation kind 'warp'"):
            arch_from_json(broken)

    def test_missing_channels_names_path(self):
        cfg = load_bundled_config("desk3")
        import json as _json

        doc = _json.loads(arch_to_json(default_source_architecture(cfg)))
        del doc["blocks"][1]["channels"]
        with pytest.raises(ParseError, match=r"blocks\[1\]\.channels"):
            arch_from_json(_json.dumps(doc))

    @pytest.mark.parametrize("where, key, value, path", [
        (("stem",), "conv_channels", 0, "$.stem.conv_channels"),
        (("stem",), "mbconv_channels", -1, "$.stem.mbconv_channels"),
        (("blocks", 1), "channels", 0, "blocks[1].channels"),
        (("blocks", 0, "ops", 0), "kernel", 4, "blocks[0].ops[0].kernel"),
        (("blocks", 0, "ops", 0), "kernel", -1, "blocks[0].ops[0].kernel"),
        (("blocks", 0, "ops", 1), "expansion", 0, "blocks[0].ops[1].expansion"),
        (("blocks", 2, "ops", 0), "stride", 3, "blocks[2].ops[0].stride"),
        (("blocks", 2, "ops", 0), "stride", 0, "blocks[2].ops[0].stride"),
    ])
    def test_out_of_range_field_names_path(self, where, key, value, path):
        import json as _json

        doc = _json.loads(arch_to_json(default_source_architecture(
            load_bundled_config("desk3"))))
        obj = doc
        for step in where:
            obj = obj[step]
        obj[key] = value
        with pytest.raises(ParseError) as err:
            arch_from_json(_json.dumps(doc))
        assert err.value.path == path
        assert f"got {value}" in str(err.value)


class TestInstantiate:
    def test_forward_finite_and_shaped(self):
        cfg = load_bundled_config("desk3")
        rng = np.random.default_rng(3)
        alphas, betas = zero_logits(cfg)
        for b in betas:
            b[-1] = 50.0
        arch = derive_architecture(alphas, betas, cfg)
        net = instantiate(arch, seed=5)
        x = rng.random((2, 3, 32, 32), dtype=np.float32)
        feats = net.forward(x, training=False)
        assert [f.data.shape[1] for f in feats] == [b.channels for b in arch.blocks]
        assert all(np.isfinite(f.data).all() for f in feats)

    def test_same_seed_identical_init(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        a, b = instantiate(arch, seed=9), instantiate(arch, seed=9)
        for (name, ta), (_, tb) in zip(a.named_params(), b.named_params()):
            assert ta.data.tobytes() == tb.data.tobytes(), name

    def test_depth_matches_ops(self):
        cfg = load_bundled_config("table1")
        arch = default_source_architecture(cfg)
        net = instantiate(arch, seed=0)
        assert [len(ops) for ops in net.blocks] == [4, 4, 4, 4, 4, 1]
