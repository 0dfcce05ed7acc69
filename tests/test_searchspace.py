"""Search-space parsing, candidate enumeration, and invariants."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt.errors import ParameterError, ParseError
from nasadapt.searchspace import (
    BlockSpec,
    OpCandidate,
    channel_candidates,
    json_text,
    load_bundled_config,
    op_candidates,
    parse_config,
)


def make_block(n_max=4, stride=2, kernels=(3, 5, 7), expansions=(3, 6),
               channel_range=(16, 28, 2), index=0):
    return BlockSpec(index=index, n_max=n_max, stride=stride, kernels=kernels,
                     expansions=expansions, channel_range=channel_range)


def minimal_doc(**overrides):
    doc = {
        "v": 1,
        "input_resolution": [32, 32],
        "blocks": [{"n_max": 2, "stride": 2, "kernels": [3], "expansions": [3],
                    "channels": [8, 16, 4]}],
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_table1(self):
        cfg = load_bundled_config("table1")
        assert len(cfg.blocks) == 6
        assert [b.stride for b in cfg.blocks] == [2, 2, 2, 1, 2, 1]
        assert [b.n_max for b in cfg.blocks] == [4, 4, 4, 4, 4, 1]
        assert cfg.stem.conv_channels == 32
        assert cfg.stem.mbconv_channels == 16
        assert [len(channel_candidates(b)) for b in cfg.blocks] == [7, 11, 13, 15, 33, 37]
        assert max(len(channel_candidates(b)) for b in cfg.blocks) == 37

    def test_empty_blocks_rejected(self):
        with pytest.raises(ParseError, match=r"\$\.blocks"):
            parse_config(json.dumps(minimal_doc(blocks=[])))

    def test_step_must_divide_range(self):
        doc = minimal_doc()
        doc["blocks"][0]["channels"] = [16, 29, 3]
        with pytest.raises(ParseError, match="step 3 does not divide range"):
            parse_config(json.dumps(doc))

    def test_step_dividing_range_accepted(self):
        # (16, 28, 3) spans 12, which 3 divides: candidates 16, 19, 22, 25, 28
        doc = minimal_doc()
        doc["blocks"][0]["channels"] = [16, 28, 3]
        cfg = parse_config(json.dumps(doc))
        assert channel_candidates(cfg.blocks[0]) == [16, 19, 22, 25, 28]

    def test_stride_outside_1_2(self):
        doc = minimal_doc()
        doc["blocks"][0]["stride"] = 3
        with pytest.raises(ParseError, match=r"blocks\[0\]\.stride"):
            parse_config(json.dumps(doc))

    def test_even_kernel_rejected(self):
        doc = minimal_doc()
        doc["blocks"][0]["kernels"] = [4]
        with pytest.raises(ParseError, match="odd"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key, values", [("kernels", [5, 3]), ("expansions", [6, 3]),
                                             ("kernels", [3, 3])])
    def test_candidates_strictly_increasing(self, key, values):
        doc = minimal_doc()
        doc["blocks"][0][key] = values
        with pytest.raises(ParseError, match=rf"\$\.blocks\[0\]\.{key}: must be strictly"):
            parse_config(json.dumps(doc))

    def test_version_checked(self):
        with pytest.raises(ParseError, match=r"\$\.v"):
            parse_config(json.dumps(minimal_doc(v=2)))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_config("{nope")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_writer_refuses_non_finite_numbers(self, value):
        # JSON has no NaN or infinity: such a document would not parse back
        with pytest.raises(ValueError):
            json_text({"total": value})


class TestChannelCandidates:
    def test_inclusive_sequence(self):
        assert channel_candidates(make_block(channel_range=(16, 28, 2))) == \
            [16, 18, 20, 22, 24, 26, 28]

    def test_widest_table_row(self):
        assert len(channel_candidates(make_block(channel_range=(256, 400, 4)))) == 37

    def test_degenerate_range(self):
        assert channel_candidates(make_block(channel_range=(64, 64, 4))) == [64]

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 64), count=st.integers(0, 40), step=st.integers(1, 8))
    def test_sequence_properties(self, lo, count, step):
        cands = channel_candidates(make_block(channel_range=(lo, lo + count * step, step)))
        assert len(cands) == count + 1
        assert cands == sorted(cands)
        assert all(b - a == step for a, b in zip(cands, cands[1:]))


class TestOpCandidates:
    def test_first_layer_excludes_skip(self):
        # the first layer's convolutions carry the block's stride
        got = op_candidates(make_block(stride=2), layer=0)
        assert got == [
            OpCandidate("mbconv", 3, 3, 2), OpCandidate("mbconv", 3, 6, 2),
            OpCandidate("mbconv", 5, 3, 2), OpCandidate("mbconv", 5, 6, 2),
            OpCandidate("mbconv", 7, 3, 2), OpCandidate("mbconv", 7, 6, 2),
        ]

    def test_later_layers_add_skip_last(self):
        # the same kernels and expansions at stride 1, then the skip
        got = op_candidates(make_block(stride=2), layer=1)
        assert got == [
            OpCandidate("mbconv", 3, 3, 1), OpCandidate("mbconv", 3, 6, 1),
            OpCandidate("mbconv", 5, 3, 1), OpCandidate("mbconv", 5, 6, 1),
            OpCandidate("mbconv", 7, 3, 1), OpCandidate("mbconv", 7, 6, 1),
            OpCandidate("skip"),
        ]

    def test_single_kernel_config(self):
        block = make_block(kernels=(3,), expansions=(6,))
        got = op_candidates(block, layer=2)
        assert got == [OpCandidate("mbconv", 3, 6), OpCandidate("skip")]

    def test_layer_out_of_range(self):
        with pytest.raises(ParameterError):
            op_candidates(make_block(n_max=4), layer=4)
        with pytest.raises(ParameterError):
            op_candidates(make_block(), layer=-1)

    def test_depth_one_block_has_no_skip_anywhere(self):
        block = make_block(n_max=1)
        assert all(c.kind == "mbconv" for c in op_candidates(block, layer=0))


def test_block_input_channels():
    cfg = load_bundled_config("table1")
    assert cfg.block_input_channels(0) == 16
    assert cfg.block_input_channels(1) == 28
    assert cfg.block_input_channels(5) == 256
