"""Architecture derivation: argmax collapse, JSON round trip, instantiation."""

import gc
import weakref

import numpy as np
import pytest

from nasadapt.costmodel import build_madds_table, madds_of_discrete
from nasadapt.derive import (
    DerivedOp,
    arch_from_doc,
    arch_to_doc,
    default_source_architecture,
    derive_architecture,
    instantiate,
)
from nasadapt.errors import ContractError, ParameterError, ParseError
from nasadapt.numerics import Tensor
from nasadapt.searchspace import (
    OpCandidate,
    channel_candidates,
    json_text,
    load_bundled_config,
    op_candidates,
    parse_json,
)
from nasadapt.supernet import build_supernet
from nasadapt.toytask import ProxyHead

from helpers import zero_logits


class TestDerive:
    def test_all_zero_logits_tie_break(self):
        cfg = load_bundled_config("desk3")
        alphas, betas = zero_logits(cfg)
        arch = derive_architecture(alphas, betas, cfg)
        for block, spec in zip(arch.blocks, cfg.blocks):
            assert block.channels == channel_candidates(spec)[0]
            assert len(block.ops) == spec.n_max  # skip is last, never wins a tie
            first = op_candidates(spec, 0)[0]
            for j, op in enumerate(block.ops):
                assert (op.kernel, op.expansion) == (first.kernel, first.expansion)
                assert op.stride == (spec.stride if j == 0 else 1)

    def test_ops_are_the_candidates_picked(self):
        cfg = load_bundled_config("table1")
        rng = np.random.default_rng(0)
        alphas, betas = zero_logits(cfg)
        alphas = [[rng.standard_normal(v.shape).astype(np.float32) for v in vecs]
                  for vecs in alphas]
        arch = derive_architecture(alphas, betas, cfg)
        for block, vecs, spec in zip(arch.blocks, alphas, cfg.blocks):
            picked = [op_candidates(spec, l)[int(np.argmax(v))] for l, v in enumerate(vecs)]
            assert list(block.ops) == [op for op in picked if op.kind != "skip"]
        source = default_source_architecture(cfg)
        for block, spec in zip(source.blocks, cfg.blocks):
            for l, op in enumerate(block.ops):
                assert op in op_candidates(spec, l)
                assert (op.kernel, op.expansion) == (spec.kernels[0], spec.expansions[-1])

    def test_derived_op_name_builds_an_mbconv_candidate(self):
        """The older name of a derived op, still imported by the benchmark."""
        # goes with the `derive.DerivedOp` shim: delete both together
        assert DerivedOp(kernel=5, expansion=6, stride=2) == OpCandidate("mbconv", 5, 6, 2)

    def test_skip_votes_shrink_depth(self):
        cfg = load_bundled_config("table1")
        alphas, betas = zero_logits(cfg)
        for vecs, spec in zip(alphas, cfg.blocks):
            for l in range(1, spec.n_max):
                vecs[l][-1] = 50.0  # skip wins on every layer after the first
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
            min(sum(mat[ci, :].min() for mat in costs)
                for ci in range(costs[0].shape[0]))
            for costs in table.blocks)
        hi = table.stem_cost + sum(
            max(sum(mat[ci, :].max() for mat in costs)
                for ci in range(costs[0].shape[0]))
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
            assert arch_from_doc(parse_json(json_text(arch_to_doc(arch)))) == arch

    def test_unknown_kind_named(self):
        cfg = load_bundled_config("desk3")
        text = json_text(arch_to_doc(default_source_architecture(cfg)))
        broken = text.replace('"kind": "mbconv"', '"kind": "warp"', 1)
        with pytest.raises(ParseError, match="unknown operation kind 'warp'"):
            arch_from_doc(parse_json(broken))

    def test_missing_channels_names_path(self):
        cfg = load_bundled_config("desk3")
        doc = arch_to_doc(default_source_architecture(cfg))
        del doc["blocks"][1]["channels"]
        with pytest.raises(ParseError, match=r"blocks\[1\]\.channels"):
            arch_from_doc(doc)

    @pytest.mark.parametrize("where, key, value, path", [
        (("stem",), "conv_channels", 0, "$.stem.conv_channels"),
        (("stem",), "mbconv_channels", -1, "$.stem.mbconv_channels"),
        (("blocks", 1), "channels", 0, "blocks[1].channels"),
        (("blocks", 0, "ops", 0), "kernel", 4, "blocks[0].ops[0].kernel"),
        (("blocks", 0, "ops", 0), "kernel", -1, "blocks[0].ops[0].kernel"),
        (("blocks", 0, "ops", 1), "expansion", 0, "blocks[0].ops[1].expansion"),
        (("blocks", 2, "ops", 0), "stride", 3, "blocks[2].ops[0].stride"),
        (("blocks", 2, "ops", 0), "stride", 0, "blocks[2].ops[0].stride"),
        ((), "input_resolution", [True, True], "$.input_resolution"),
    ])
    def test_out_of_range_field_names_path(self, where, key, value, path):
        doc = arch_to_doc(default_source_architecture(load_bundled_config("desk3")))
        obj = doc
        for step in where:
            obj = obj[step]
        obj[key] = value
        with pytest.raises(ParseError) as err:
            arch_from_doc(doc)
        # the error path is the case's path, rooted at $
        assert err.value.path == "$." + path.removeprefix("$.")
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
        arrays = b.to_arrays()
        for name, ta in a.to_arrays().items():
            assert ta.tobytes() == arrays[name].tobytes(), name

    @pytest.mark.parametrize("name, edit", [
        ("stem/mbconv/depthwise/weight", "missing"),
        ("block0/layer1/depthwise/bn/mean", "missing"),
        ("block1/layer0/expand/weight", "wrong-shape"),
    ])
    def test_from_arrays_names_a_bad_tensor(self, name, edit):
        arch = default_source_architecture(load_bundled_config("desk3"))
        arrays = instantiate(arch, seed=0).to_arrays()
        if edit == "missing":
            del arrays[name]
        else:
            arrays[name] = arrays[name][..., None]
        with pytest.raises(ContractError, match=f"'{name}'"):
            instantiate(arch, arrays=arrays)

    def test_takes_exactly_one_of_seed_and_arrays(self):
        arch = default_source_architecture(load_bundled_config("desk3"))
        arrays = instantiate(arch, seed=0).to_arrays()
        with pytest.raises(ParameterError):
            instantiate(arch)
        with pytest.raises(ParameterError):
            instantiate(arch, seed=0, arrays=arrays)

    def test_depth_matches_ops(self):
        cfg = load_bundled_config("table1")
        arch = default_source_architecture(cfg)
        net = instantiate(arch, seed=0)
        assert [len(ops) for ops in net.blocks] == [4, 4, 4, 4, 4, 1]


def test_networks_built_from_arrays_do_not_keep_them():
    config = load_bundled_config("desk3")
    arch = default_source_architecture(config)
    cases = [
        (lambda arrays: instantiate(arch, arrays=arrays), instantiate(arch, seed=0).to_arrays()),
        (lambda arrays: build_supernet(config, arrays=arrays),
         build_supernet(config, seed=0).to_arrays()),
        (lambda arrays: ProxyHead(16, 4, arrays=arrays), ProxyHead(16, 4, seed=0).to_arrays()),
    ]
    for build, arrays in cases:
        arrays = {name: arr.copy() for name, arr in arrays.items()}
        expected = {name: arr.copy() for name, arr in arrays.items()}
        refs = [weakref.ref(arr) for arr in arrays.values()]
        net = build(arrays)
        del arrays
        gc.collect()
        assert all(ref() is None for ref in refs), type(net).__name__
        built = net.to_arrays()
        assert list(built) == list(expected)
        assert all(np.array_equal(built[name], expected[name]) for name in expected)
