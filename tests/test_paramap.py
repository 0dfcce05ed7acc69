"""Parameter mapping rules, reports, noise, and function preservation."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt import layers
from nasadapt.derive import (
    DerivedBlock,
    DiscreteArchitecture,
    DiscreteNetwork,
    default_source_architecture,
    instantiate,
)
from nasadapt.errors import ContractError, ParameterError, ParseError
from nasadapt.numerics import Tensor
from nasadapt.numerics import tensor as engine
from nasadapt.paramap import (
    ParameterBundle,
    check_source_maps,
    map_to_derived,
    map_to_supernet,
    verify_function_preservation,
)
from nasadapt.searchspace import (
    OpCandidate,
    bundled_config_path,
    load_bundled_config,
    op_candidates,
    parse_config,
)
from nasadapt.supernet import build_supernet, logit_lengths


def desk_config():
    return load_bundled_config("desk3")


def _seed_built_table1_grown_to_k7():
    """The seed-1 table1 default source, as the benchmark builds it, and its
    eps-0 mapping onto every kernel grown to 7, at 64x224: the depthwise
    planes run the tap loop, and the last 7x7 ones the Toeplitz matmul."""
    source = replace(default_source_architecture(load_bundled_config("table1")),
                     input_resolution=(64, 224))
    grown = replace(source, blocks=tuple(
        replace(b, ops=tuple(replace(op, kernel=7) for op in b.ops)) for b in source.blocks))
    net = instantiate(source, seed=1)
    mapped, _ = map_to_derived(ParameterBundle(tensors=net.to_arrays(), arch=source), grown,
                               eps=0.0)
    return net, instantiate(grown, arrays=mapped.tensors)


def source_bundle(cfg, seed=0):
    arch = default_source_architecture(cfg)
    net = instantiate(arch, seed=seed)
    return ParameterBundle(tensors={k: v.copy() for k, v in net.to_arrays().items()},
                           arch=arch), arch


def saved_with_sidecar_edit(tmp_path, edit):
    """Save a desk3 source bundle, apply ``edit`` to its .arch.json sidecar,
    and return the bundle path."""
    bundle, _ = source_bundle(desk_config())
    path = tmp_path / "source.nat"
    bundle.save(path)
    sidecar = path.with_suffix(".arch.json")
    doc = json.loads(sidecar.read_text())
    edit(doc)
    sidecar.write_text(json.dumps(doc))
    return path


def widened(arch, block_idx, new_channels):
    blocks = list(arch.blocks)
    blocks[block_idx] = DerivedBlock(channels=new_channels,
                                     ops=blocks[block_idx].ops)
    return DiscreteArchitecture(input_resolution=arch.input_resolution,
                                stem=arch.stem, blocks=tuple(blocks))


def rekernel(arch, block_idx, kernel):
    blocks = list(arch.blocks)
    ops = tuple(OpCandidate(kernel=kernel, expansion=o.expansion, stride=o.stride)
                for o in blocks[block_idx].ops)
    blocks[block_idx] = DerivedBlock(channels=blocks[block_idx].channels, ops=ops)
    return DiscreteArchitecture(input_resolution=arch.input_resolution,
                                stem=arch.stem, blocks=tuple(blocks))


def layered(cfg, blocks):
    """An architecture on ``cfg``'s stem with one (channels, kernel,
    expansion, depth) tuple per block, strided as the space says."""
    return DiscreteArchitecture(
        input_resolution=cfg.input_resolution, stem=cfg.stem,
        blocks=tuple(DerivedBlock(channels=c, ops=tuple(
            OpCandidate(kernel=k, expansion=e, stride=spec.stride if layer == 0 else 1)
            for layer in range(depth)))
            for spec, (c, k, e, depth) in zip(cfg.blocks, blocks, strict=True)))


SOURCE = [(16, 3, 3, 2), (16, 3, 3, 2), (24, 3, 6, 2)]  # desk3's default source


def edited(i, block):
    """``SOURCE`` with block ``i`` replaced by ``block``."""
    return [block if j == i else b for j, b in enumerate(SOURCE)]


def mapped_pair(source_blocks, target_blocks, eps=0.0):
    """A desk3 source of ``layered`` blocks and its mapping onto the target:
    (source tensors, mapped tensors, report)."""
    cfg = desk_config()
    source = layered(cfg, source_blocks)
    bundle = ParameterBundle(tensors=instantiate(source, seed=0).to_arrays(),
                             arch=source)
    mapped, report = map_to_derived(bundle, layered(cfg, target_blocks), eps=eps)
    return bundle.tensors, mapped.tensors, report


class TestMapKernel:
    """Kernel embed and crop, through ``map_to_derived``."""

    def test_embed_3_to_5(self):
        src, out, report = mapped_pair(SOURCE, edited(0, (16, 5, 3, 2)))
        name = "block0/layer1/depthwise/weight"
        w, big = src[name], out[name]
        assert big.shape == w.shape[:2] + (5, 5)
        np.testing.assert_array_equal(big[:, :, 1:4, 1:4], w)
        assert np.count_nonzero(big) == np.count_nonzero(w)
        assert report.entries[name].rules == ("kernel-embed",)
        assert report.entries[name].zero_count == w.shape[0] * 16

    def test_identity(self):
        # only block 0's depthwise kernels change; nothing else takes a rule
        src, out, report = mapped_pair(SOURCE, edited(0, (16, 5, 3, 2)))
        for name, entry in report.entries.items():
            if name.startswith("block0/") and name.endswith("/depthwise/weight"):
                continue
            assert entry.rules == ("direct",), name
            assert out[name].tobytes() == src[name].tobytes(), name

    def test_even_kernel_rejected(self, tmp_path):
        # a source is read through its sidecar, which admits odd kernels only
        path = saved_with_sidecar_edit(
            tmp_path, lambda d: d["blocks"][0]["ops"][0].update(kernel=4))
        with pytest.raises(ParseError, match=r"\$\.blocks\[0\]\.ops\[0\]\.kernel"):
            ParameterBundle.load(path)

    @settings(max_examples=30, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), grow=st.sampled_from([2, 4]),
           seed=st.integers(0, 1000))
    def test_round_trip_exact(self, k, grow, seed):
        cfg = desk_config()
        small = [(16, k, 3, 2), (16, k, 3, 2), (24, 3, 6, 2)]
        big = [(16, k + grow, 3, 2), (16, k + grow, 3, 2), (24, 3, 6, 2)]
        src = instantiate(layered(cfg, small), seed=seed).to_arrays()
        there, _ = map_to_derived(
            ParameterBundle(tensors=src, arch=layered(cfg, small)),
            layered(cfg, big))
        back, report = map_to_derived(there, layered(cfg, small))
        assert report.entries["block1/layer0/depthwise/weight"].rules == ("kernel-crop",)
        assert all(back.tensors[n].tobytes() == src[n].tobytes() for n in src)


class TestMapChannels:
    """Channel pad and truncate, through ``map_to_derived``."""

    def test_widen_1x1_conv(self):
        # block 0 widens 8 -> 16: its last project gains 8 output and, at
        # expansion 3, 24 input channels; block 1's first expand gains 8 input
        # and 24 hidden channels
        src, out, report = mapped_pair(edited(0, (8, 3, 3, 2)), SOURCE)
        project, expand = "block0/layer1/project/weight", "block1/layer0/expand/weight"
        assert out[project].shape == (16, 48, 1, 1) and src[project].shape == (8, 24, 1, 1)
        assert out[expand].shape == (48, 16, 1, 1) and src[expand].shape == (24, 8, 1, 1)
        for name in (project, expand):
            np.testing.assert_array_equal(out[name][:src[name].shape[0], :src[name].shape[1]],
                                          src[name])
            entry = report.entries[name]
            assert entry.rules == ("channel-pad", "channel-pad")
            assert entry.zero_count == out[name].size - src[name].size
            assert np.count_nonzero(out[name]) == np.count_nonzero(src[name])

    def test_equal_width_bit_identical(self):
        # only block 1 widens: block 0, whose widths are unchanged, maps directly
        src, out, report = mapped_pair(edited(1, (8, 3, 3, 2)), SOURCE)
        block0 = [n for n in report.entries if n.startswith("block0/")]
        assert block0
        for name in block0:
            assert out[name].tobytes() == src[name].tobytes(), name
            assert report.entries[name].rules == ("direct",)

    def test_truncate(self):
        src, out, report = mapped_pair(SOURCE, edited(1, (8, 3, 3, 2)))
        weight, gamma = "block1/layer1/project/weight", "block1/layer1/project/bn/gamma"
        np.testing.assert_array_equal(out[weight], src[weight][:8, :24])
        np.testing.assert_array_equal(out[gamma], src[gamma][:8])
        assert report.entries[weight].rules == ("channel-truncate", "channel-truncate")
        assert report.entries[gamma].rules == ("channel-truncate",)
        expand = "block2/layer0/expand/weight"
        np.testing.assert_array_equal(out[expand], src[expand][:48, :8])
        assert report.entries[expand].zero_count == 0

    def test_axis_extent_checked(self):
        # a source tensor whose channel extent disagrees with its architecture
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        name = "block0/layer0/project/weight"
        bundle.tensors[name] = np.zeros((17,) + bundle.tensors[name].shape[1:],
                                        dtype=np.float32)
        with pytest.raises(ContractError, match=name):
            map_to_derived(bundle, widened(arch, 0, 16))

    def test_pad_value_one_not_marked_zero(self):
        # widening block 0 8 -> 16 gives its new channels gamma 0, beta 0, mean 0
        # and var 1; var's pad of 1 is no zero mask
        src, out, report = mapped_pair(edited(0, (8, 3, 3, 2)), SOURCE)
        _, _, noisy = mapped_pair(edited(0, (8, 3, 3, 2)), SOURCE, eps=1e-3)
        noised = {}
        for bn, pad, zero_count in (("gamma", 0.0, 8), ("beta", 0.0, 8), ("mean", 0.0, 8),
                                    ("var", 1.0, 0)):
            name = f"block0/layer1/project/bn/{bn}"
            np.testing.assert_array_equal(
                out[name], np.concatenate([src[name], np.full(8, pad, dtype=np.float32)]))
            assert report.entries[name].rules == ("channel-pad",)
            assert report.entries[name].zero_count == zero_count
            noised[bn] = noisy.entries[name].noised
        assert noised == {"gamma": True, "beta": True, "mean": False, "var": False}


class TestMapDepth:
    """Depth copy and truncation, through ``map_to_derived``."""

    def test_extend_copies_last(self):
        _, out, report = mapped_pair(edited(1, (16, 3, 3, 1)), edited(1, (16, 3, 3, 4)))
        for layer in (1, 2, 3):
            entry = report.entries[f"block1/layer{layer}/depthwise/weight"]
            assert entry.source == "block1/layer0/depthwise/weight"
            assert entry.rules[0] == "depth-copy"
        assert not any("depth-copy" in report.entries[n].rules
                       for n in report.entries if n.startswith("block1/layer0/"))

    def test_identity(self):
        _, _, report = mapped_pair(SOURCE, SOURCE)
        assert all(e.source == e.target and e.rules == ("direct",)
                   for e in report.entries.values())

    def test_truncate_tail(self):
        src, out, report = mapped_pair(SOURCE, edited(1, (16, 3, 3, 1)))
        assert not any(n.startswith("block1/layer1/") for n in out)
        assert not any(e.source.startswith("block1/layer1/")
                       for e in report.entries.values())
        name = "block1/layer0/depthwise/weight"
        assert out[name].tobytes() == src[name].tobytes()

    def test_empty_source_rejected(self, tmp_path):
        # a source is read through its sidecar, which admits no empty block
        path = saved_with_sidecar_edit(tmp_path, lambda d: d["blocks"][1].update(ops=[]))
        with pytest.raises(ParseError, match=r"\$\.blocks\[1\]\.ops: .*at least one op"):
            ParameterBundle.load(path)


class TestNoise:
    def _mapped(self, eps, seed=3):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        # no source entry is 0, so the clean zeros are exactly the pads of 0
        for name, arr in bundle.tensors.items():
            if name.endswith("/bn/beta"):
                arr += 0.5
        target = rekernel(widened(arch, 0, 16), 1, 5)  # some pads + embeds
        return map_to_derived(bundle, target, eps=eps, seed=seed)

    def test_eps_zero_is_noop(self):
        a, _ = self._mapped(0.0)
        b, _ = self._mapped(0.0)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_noise_bounded_and_only_on_zero_assigned(self):
        clean, _ = self._mapped(0.0)
        noisy, report = self._mapped(1e-4)
        touched = 0
        for name, entry in report.entries.items():
            before, after = clean.tensors[name], noisy.tensors[name]
            changed = after != before
            if name.endswith(("/bn/mean", "/bn/var")):
                assert not changed.any() and not entry.noised
                continue
            assert (np.abs(after - before) <= 1e-4 + 1e-9).all()
            assert int(changed.sum()) == entry.zero_count
            np.testing.assert_array_equal(changed, before == 0)
            touched += entry.noised
        assert touched > 0
    def test_noise_reproducible(self):
        a, _ = self._mapped(1e-4, seed=7)
        b, _ = self._mapped(1e-4, seed=7)
        c, _ = self._mapped(1e-4, seed=8)
        assert all(a.tensors[n].tobytes() == b.tensors[n].tobytes() for n in a.tensors)
        assert any(a.tensors[n].tobytes() != c.tensors[n].tobytes() for n in a.tensors)

    def test_negative_eps_rejected(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        with pytest.raises(ParameterError):
            map_to_derived(bundle, arch, eps=-1.0)


class TestMapToDerived:
    def test_identity_mapping_bit_identical(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        mapped, report = map_to_derived(bundle, arch, eps=0.0)
        assert set(mapped.tensors) == set(bundle.tensors)
        for name in bundle.tensors:
            assert mapped.tensors[name].tobytes() == bundle.tensors[name].tobytes(), name
            assert report.entries[name].rules == ("direct",)

    def test_widened_block_reports_pads(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        target = widened(arch, 1, 16)
        # widen block 1 beyond its source? source is already max; narrow instead
        target = widened(arch, 1, 8)
        mapped, report = map_to_derived(bundle, target, eps=0.0)
        entry = report.entries["block1/layer0/project/weight"]
        assert "channel-truncate" in entry.rules

    def test_kernel_rule_recorded(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        target = rekernel(arch, 0, 5)
        mapped, report = map_to_derived(bundle, target, eps=0.0)
        entry = report.entries["block0/layer0/depthwise/weight"]
        assert "kernel-embed" in entry.rules
        assert entry.zero_count > 0

    def test_depth_copy_recorded(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        shallow = DiscreteArchitecture(
            input_resolution=arch.input_resolution, stem=arch.stem,
            blocks=tuple(DerivedBlock(channels=b.channels, ops=b.ops[:1])
                         for b in arch.blocks))
        shallow_net = instantiate(shallow, seed=1)
        shallow_bundle = ParameterBundle(
            tensors={k: v.copy() for k, v in shallow_net.to_arrays().items()},
            arch=shallow)
        mapped, report = map_to_derived(shallow_bundle, arch, eps=0.0)
        entry = report.entries["block0/layer1/project/weight"]
        assert "depth-copy" in entry.rules
        # the copy of the last source layer is width-adjusted: its leading
        # hidden channels are the source kernel, the padded rest is zero
        src_dw = shallow_bundle.tensors["block0/layer0/depthwise/weight"]
        copy_dw = mapped.tensors["block0/layer1/depthwise/weight"]
        np.testing.assert_array_equal(copy_dw[:src_dw.shape[0]], src_dw)
        np.testing.assert_array_equal(copy_dw[src_dw.shape[0]:], 0.0)

    def test_report_exhaustive_and_disjoint(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        target = rekernel(widened(arch, 2, 16), 0, 5)
        mapped, report = map_to_derived(bundle, target, eps=0.0)
        net = instantiate(target, seed=0)
        expected_names = set(net.to_arrays())
        assert set(report.entries) == expected_names
        assert set(mapped.tensors) == expected_names

    def test_expansion_one_onto_six_rejected(self):
        # the source's first layer has no expand stage, the target's has one
        arch = default_source_architecture(desk_config())

        def first_expansion(e):
            first = arch.blocks[0]
            op = OpCandidate(kernel=first.ops[0].kernel, expansion=e, stride=first.ops[0].stride)
            block = DerivedBlock(channels=first.channels, ops=(op, *first.ops[1:]))
            return DiscreteArchitecture(input_resolution=arch.input_resolution,
                                        stem=arch.stem, blocks=(block, *arch.blocks[1:]))

        source = first_expansion(1)
        bundle = ParameterBundle(tensors=instantiate(source, seed=0).to_arrays(),
                                 arch=source)
        with pytest.raises(ContractError,
                           match="cannot map block0/layer0 .* onto block0/layer0 "):
            map_to_derived(bundle, first_expansion(6))

    def test_block_count_mismatch(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        broken = DiscreteArchitecture(input_resolution=arch.input_resolution,
                                      stem=arch.stem, blocks=arch.blocks[:2])
        with pytest.raises(ContractError):
            map_to_derived(bundle, broken)

    def test_tensors_in_network_order(self):
        # parameters, then running statistics, as the target network lists
        # them, though the mapping interleaves them stage by stage
        cfg = desk_config()
        source = layered(cfg, [(12, 3, 3, 2), (16, 5, 3, 2), (24, 3, 6, 1)])
        target = layered(cfg, [(16, 5, 3, 2), (8, 3, 3, 2), (24, 3, 3, 2)])
        bundle = ParameterBundle(tensors=instantiate(source, seed=4).to_arrays(), arch=source)
        mapped, report = map_to_derived(bundle, target, eps=1e-3, seed=11)
        assert list(mapped.tensors) == list(instantiate(target, seed=0).to_arrays())
        assert list(report.entries) != list(mapped.tensors)


class TestMappedBytes:
    def test_every_rule_at_once_pinned(self, tmp_path):
        # block 0 pads and embeds, block 1 truncates and crops, block 2 copies
        # its last layer and halves the expansion; the digests pin the bytes
        # of the mapped tensors, their noise and the report
        cfg = desk_config()
        source = layered(cfg, [(12, 3, 3, 2), (16, 5, 3, 2), (24, 3, 6, 1)])
        target = layered(cfg, [(16, 5, 3, 2), (8, 3, 3, 2), (24, 3, 3, 2)])
        bundle = ParameterBundle(tensors=instantiate(source, seed=4).to_arrays(),
                                 arch=source)
        mapped, report = map_to_derived(bundle, target, eps=1e-3, seed=11)
        assert {r for e in report.entries.values() for r in e.rules} == {
            "direct", "depth-copy", "channel-pad", "channel-truncate", "kernel-embed",
            "kernel-crop"}
        assert any(e.noised for e in report.entries.values())
        mapped.save(tmp_path / "mapped.nat")
        report.save(tmp_path / "report.json")

        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

        assert digest("mapped.nat") == \
            "f881dd430bba33cbc599980cddc5275fe278577a1cb9558545715b11df66056d"
        assert digest("report.json") == \
            "3060b1e889aca2fb5b60d2ac30e3ed2f028f527f21a05a7a0d13e1e71bf0b9b0"


class TestMapToSupernet:
    def test_direct_copy_for_matching_candidate(self):
        # block 2 of desk3 has kernel 3 / expansion 6 among its candidates and
        # the source uses exactly that; all widths equal the block maximum
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        mapped, report = map_to_supernet(bundle, cfg, eps=0.0)
        net = build_supernet(cfg, arrays=mapped.tensors)
        layer = net.blocks[2].layers[1]
        matching = [o for o, c in enumerate(op_candidates(cfg.blocks[2], 1))
                    if c.kind == "mbconv" and c.kernel == 3 and c.expansion == 6]
        o = matching[0]
        entry = report.entries[f"block2/layer1/op{o}/depthwise/weight"]
        assert entry.rules == ("direct",)
        np.testing.assert_array_equal(
            layer[o].weight["depthwise"].data,
            bundle.tensors["block2/layer1/depthwise/weight"])

    def test_kernel_embed_recorded_for_k5(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        _, report = map_to_supernet(bundle, cfg, eps=0.0)
        k5 = [o for o, c in enumerate(op_candidates(cfg.blocks[0], 0)) if c.kernel == 5][0]
        entry = report.entries[f"block0/layer0/op{k5}/depthwise/weight"]
        assert "kernel-embed" in entry.rules

    def test_report_covers_all_weight_tensors(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        net = build_supernet(cfg, seed=6)
        mapped, report = map_to_supernet(bundle, cfg, eps=0.0)
        assert set(report.entries) == set(net.to_arrays()) - set(logit_lengths(cfg))
        assert list(mapped.tensors) == list(net.to_arrays())
        # architecture logits are not mapping targets
        assert not any(n.startswith(("alpha/", "beta/")) for n in report.entries)

    def test_up_front_check_raises_the_mappings_error(self):
        # block 0 mixes expansions 1 and 2: the default source's k3/e2 layer
        # has an expand stage, the k3/e1 candidate none
        doc = json.loads(bundled_config_path("desk3").read_text(encoding="utf-8"))
        doc["blocks"][0]["expansions"] = [1, 2]
        cfg = parse_config(json.dumps(doc))
        bundle, _ = source_bundle(cfg)
        with pytest.raises(ContractError, match="cannot map block0/layer0 ") as mapped:
            map_to_supernet(bundle, cfg)
        with pytest.raises(ContractError) as checked:
            check_source_maps(cfg)
        assert str(checked.value) == str(mapped.value)

    def test_alpha_beta_untouched(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        before = [v.data.copy() for v in build_supernet(cfg, seed=7).arch_params()]
        mapped, _ = map_to_supernet(bundle, cfg, eps=1e-4, seed=1)
        net = build_supernet(cfg, arrays=mapped.tensors)
        for old, new in zip(before, net.arch_params(), strict=True):
            np.testing.assert_array_equal(old, new.data)


class TestFunctionPreservation:
    def test_kernel_embed_only(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg, seed=8)
        target = rekernel(arch, 0, 5)
        mapped, _ = map_to_derived(bundle, target, eps=0.0)
        src_net = instantiate(arch, arrays=bundle.tensors)
        dst_net = instantiate(target, arrays=mapped.tensors)
        report = verify_function_preservation(src_net, dst_net, samples=16, tol=1e-5)
        assert report["passed"], report

    def test_channel_pad_only(self):
        cfg = parse_config(json.dumps({
            "v": 1, "input_resolution": [32, 32],
            "stem": {"conv_channels": 8, "mbconv_channels": 8},
            "blocks": [
                {"n_max": 2, "stride": 2, "kernels": [3], "expansions": [3],
                 "channels": [8, 16, 4]},
                {"n_max": 2, "stride": 2, "kernels": [3], "expansions": [3],
                 "channels": [8, 16, 4]},
            ],
        }))
        arch = default_source_architecture(cfg)
        narrow = widened(widened(arch, 0, 8), 1, 12)
        net = instantiate(narrow, seed=9)
        bundle = ParameterBundle(
            tensors={k: v.copy() for k, v in net.to_arrays().items()},
            arch=narrow)
        # randomize source BN stats so preservation is not trivial
        rng = np.random.default_rng(4)
        for name, arr in bundle.tensors.items():
            if name.endswith("/bn/mean"):
                arr += rng.standard_normal(arr.shape).astype(np.float32) * 0.1
        mapped, report_map = map_to_derived(bundle, arch, eps=0.0)
        rules = {r for e in report_map.entries.values() for r in e.rules}
        assert rules <= {"direct", "channel-pad"}
        src_net = instantiate(narrow, arrays=bundle.tensors)
        dst_net = instantiate(arch, arrays=mapped.tensors)
        report = verify_function_preservation(src_net, dst_net, samples=16, tol=1e-5)
        assert report["passed"], report
        # padded output channels must emit exactly zero in eval mode
        x = Tensor(np.random.default_rng(5).random((1, 3, 32, 32), dtype=np.float32))
        feats = dst_net.forward(x, training=False)
        np.testing.assert_array_equal(feats[0].data[:, 8:], 0.0)

    def test_identity_mapping_zero_deviation(self):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg, seed=10)
        mapped, _ = map_to_derived(bundle, arch, eps=0.0)
        src_net = instantiate(arch, arrays=bundle.tensors)
        dst_net = instantiate(arch, arrays=mapped.tensors)
        report = verify_function_preservation(src_net, dst_net, samples=4, tol=0.0)
        assert report["max_deviation"] == 0.0

    def test_seed_built_table1_source_grown_to_k7_keeps_zero_deviation(self, monkeypatch):
        # its eval activations shrink block by block, so the eval batch
        # norm's flush below sqrt(tiny) zeroes values on both sides
        net, grown_net = _seed_built_table1_grown_to_k7()
        flushed, layouts = [], set()
        affine, choose = engine._affine, engine._dw_kernel

        def counting_affine(xd, scale, shift, clip, out):
            plain = xd * scale[:, None, None] + shift[:, None, None]  # before out may overwrite xd
            if clip:
                plain = np.clip(plain, 0.0, 6.0)
            out = affine(xd, scale, shift, clip, out)
            flushed.append(int((out != plain).sum()))
            return out

        monkeypatch.setattr(engine, "_affine", counting_affine)
        monkeypatch.setattr(engine, "_dw_kernel",
                            lambda *shape: layouts.add(choose(*shape)) or choose(*shape))
        report = verify_function_preservation(net, grown_net, samples=1, seed=1)
        assert report["max_deviation"] == 0.0 and report["passed"]
        assert sum(flushed) > 0 and layouts == {"taps", "toeplitz"}

    def test_seed_built_table1_eval_convs_read_nothing_below_the_flush_floor(self,
                                                                              monkeypatch):
        # every conv after the stem reads a flushed batch-norm output (or a
        # zero pad), so each operand entry is 0 or at least sqrt(tiny), and
        # its product with any weight of at least sqrt(tiny) is normal
        nets = _seed_built_table1_grown_to_k7()
        stems = {id(net.stem.weight["conv"]) for net in nets}
        below, conv = [], layers.conv2d

        def spy(x, weight, *args, **kw):
            if id(weight) not in stems:
                xd = np.abs(x.data if isinstance(x, Tensor) else x)
                below.append(int(((xd > 0) & (xd < engine._FLUSH_FLOOR)).sum()))
            return conv(x, weight, *args, **kw)

        monkeypatch.setattr(layers, "conv2d", spy)
        verify_function_preservation(*nets, samples=1, seed=1)
        assert len(below) > 100 and sum(below) == 0

    def test_non_finite_deviation_names_the_block(self):
        # max(0.0, nan) is 0.0, so a NaN deviation would otherwise pass as 0.0
        bundle, arch = source_bundle(desk_config(), seed=8)
        tensors = {k: v.copy() for k, v in bundle.tensors.items()}
        tensors["block2/layer1/project/weight"][0, 0] = np.nan
        with pytest.raises(ContractError, match="block2 deviates by nan"):
            verify_function_preservation(instantiate(arch, arrays=bundle.tensors),
                                         instantiate(arch, arrays=tensors), samples=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        # a check over no inputs compares nothing, so it cannot pass
        _, arch = source_bundle(desk_config())
        net = instantiate(arch, seed=0)
        with pytest.raises(ParameterError, match="samples"):
            verify_function_preservation(net, net, samples=samples)


@pytest.mark.parametrize("target", ["derived", "supernet"])
@pytest.mark.parametrize("name, edit", [
    ("stem/conv/weight", lambda a: np.zeros(a.shape[:2] + (5, 5), dtype=np.float32)),
    ("block1/layer0/expand/weight", lambda a: np.zeros(a.shape[:2] + (3, 3),
                                                        dtype=np.float32)),
    ("block0/layer1/depthwise/bn/var", None),
])
def test_source_not_matching_its_architecture_rejected(target, name, edit):
    cfg = desk_config()
    bundle, arch = source_bundle(cfg)
    if edit is None:
        del bundle.tensors[name]
    else:
        bundle.tensors[name] = edit(bundle.tensors[name])
    with pytest.raises(ContractError, match=name):
        if target == "derived":
            map_to_derived(bundle, arch)
        else:
            map_to_supernet(bundle, cfg)


class TestSourceReadInPlace:
    """The mapper checks its source against the stage lists and reads the
    bundle's arrays: it builds no network, so it holds no copy of them."""

    def test_builds_no_network(self, monkeypatch):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg, seed=1)
        target = widened(rekernel(arch, 1, 5), 0, 24)

        def run():
            return [map_to_derived(bundle, target, eps=1e-3, seed=2),
                    map_to_supernet(bundle, cfg, eps=1e-3, seed=2)]

        want = run()

        def refuse(*args, **kwargs):
            raise AssertionError("the mapper built a network")

        monkeypatch.setattr(DiscreteNetwork, "__init__", refuse)
        for (got, got_report), (mapped, report) in zip(run(), want):
            assert list(got.tensors) == list(mapped.tensors)
            assert all(got.tensors[n].tobytes() == a.tobytes()
                       for n, a in mapped.tensors.items())
            assert got_report.entries == report.entries

    def test_peak_is_about_the_output(self):
        # a network built from the source would copy every tensor: 2x
        cfg = load_bundled_config("table1")
        arch = default_source_architecture(cfg)
        bundle = ParameterBundle(tensors=instantiate(arch, seed=1).to_arrays(),
                                 arch=arch)
        tracemalloc.start()
        try:
            mapped, _ = map_to_derived(bundle, arch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(a.nbytes for a in mapped.tensors.values())


class TestBundleIO:
    def test_save_load_round_trip(self, tmp_path):
        cfg = desk_config()
        bundle, arch = source_bundle(cfg)
        path = tmp_path / "source.nat"
        bundle.save(path)
        loaded = ParameterBundle.load(path)
        assert loaded.arch == arch
        assert set(loaded.tensors) == set(bundle.tensors)
        for name in bundle.tensors:
            assert loaded.tensors[name].tobytes() == bundle.tensors[name].tobytes()

    def test_malformed_sidecar_names_its_file(self, tmp_path):
        cfg = desk_config()
        bundle, _ = source_bundle(cfg)
        path = tmp_path / "source.nat"
        bundle.save(path)
        sidecar = path.with_suffix(".arch.json")
        sidecar.write_text('{"v": 1, "blocks": [')
        with pytest.raises(ParseError, match="invalid JSON") as err:
            ParameterBundle.load(path)
        assert err.value.path == f"{sidecar}:$"

    def test_missing_arch_metadata(self):
        bundle, arch = source_bundle(desk_config())
        with pytest.raises(ContractError, match="sidecar is missing"):
            map_to_derived(ParameterBundle(tensors=bundle.tensors, arch=None), arch)
