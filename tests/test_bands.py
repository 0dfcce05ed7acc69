"""Unrecorded eval conv chains in bands of rows against the whole plane.

A chain whose stage outputs exceed ``layers.BAND_BYTES`` runs its stages
band by band; each conv and batch norm is the whole plane's call on fewer
rows. The bands must give the whole plane's bits and multiply-add count,
hold only about the budget beyond the chain's input and output, and never
touch a recorded or a training forward. The budget is patched small here so
that planes of a few dozen rows split into many bands; the bands still keep
every matmul above the BLAS small-matrix size, so they cannot go below a
few rows where the channel counts are small.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from nasadapt import layers
from nasadapt.derive import default_source_architecture, instantiate
from nasadapt.layers import ConvChain, TensorSource, mbconv_stages, stem_stages
from nasadapt.numerics import Tensor, count_madds, no_grad
from nasadapt.searchspace import StemSpec, load_bundled_config
from nasadapt.supernet import build_supernet


def _chain(stages, seed=0):
    """A chain with batch-norm statistics and weights far from their inits,
    so every stage's epilogue and clip matter."""
    chain = ConvChain(stages, TensorSource(seed=seed))
    rng = np.random.default_rng(seed)
    for gamma, beta, mean, var in chain.bn.values():
        gamma.data[...] = rng.uniform(0.5, 1.5, gamma.data.shape)
        beta.data[...] = rng.uniform(-0.5, 0.5, beta.data.shape)
        mean[...] = rng.uniform(-0.1, 0.1, mean.shape)
        var[...] = rng.uniform(0.5, 2.0, var.shape)
    for w in chain.weight.values():
        w.data[...] = rng.standard_normal(w.data.shape) * 0.3
    return chain


def _eval(chain, x, budget, monkeypatch):
    """(output, madds, conv calls, bands) of an unrecorded eval forward."""
    monkeypatch.setattr(layers, "BAND_BYTES", budget)
    with no_grad(), count_madds() as counter:
        bands = chain._bands(Tensor(x))
        out = chain(Tensor(x), training=False).data
    return out, counter.madds, counter.conv_calls, bands


def _check_bands_match_whole_plane(chain, x, monkeypatch, budget=1):
    want, madds, calls, whole = _eval(chain, x, 1 << 62, monkeypatch)
    got, band_madds, band_calls, bands = _eval(chain, x, budget, monkeypatch)
    assert (whole, calls) == (1, len(chain.stages))
    assert bands >= 2
    assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
    assert band_madds == madds
    assert band_calls == bands * len(chain.stages)
    return bands


@pytest.mark.parametrize("k,stride,e", list(itertools.product((3, 5, 7), (1, 2), (1, 3, 6))))
def test_banded_mbconv_is_the_whole_plane_bit_for_bit(monkeypatch, k, stride, e):
    # 73 and 37 rows are odd; the first band reads the top padding and the
    # last the bottom
    x = np.random.default_rng(k * 10 + stride + e).standard_normal((1, 64, 73, 64))
    x = x.astype(np.float32)
    chain = _chain(mbconv_stages(64, 48, k, e, stride))
    if e > 1:
        assert _check_bands_match_whole_plane(chain, x, monkeypatch) >= 3
        return
    # expansion 1 has no expanded intermediate to bound: even a 1-byte
    # budget runs the whole plane, with the same bits
    want, madds, calls, _ = _eval(chain, x, 1 << 62, monkeypatch)
    got, band_madds, band_calls, bands = _eval(chain, x, 1, monkeypatch)
    assert (bands, calls, band_calls, band_madds) == (1, 2, 2, madds)
    assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()


def test_one_row_bands_in_a_batch(monkeypatch):
    x = np.random.default_rng(1).standard_normal((2, 64, 15, 128)).astype(np.float32)
    assert _check_bands_match_whole_plane(
        _chain(mbconv_stages(64, 64, 3, 6, 2)), x, monkeypatch) == 8  # one per output row


def test_banded_stem_is_the_whole_plane_bit_for_bit(monkeypatch):
    x = np.random.default_rng(2).uniform(0, 1, (1, 3, 201, 544)).astype(np.float32)
    _check_bands_match_whole_plane(_chain(stem_stages(StemSpec(32, 16))), x, monkeypatch)


def test_bands_follow_the_budget(monkeypatch):
    chain = _chain(mbconv_stages(16, 24, 3, 6, 2))
    x = Tensor(np.zeros((1, 16, 160, 256), dtype=np.float32))
    counts = []
    for budget in (1 << 18, 1 << 20, 1 << 22, 1 << 24):
        monkeypatch.setattr(layers, "BAND_BYTES", budget)
        with no_grad():
            counts.append(chain._bands(x))
    # the expand output is 15.7 MB, 196 KB per output row: four rows per
    # band at the smallest budget, where the project matmul needs them, and
    # the whole plane at the largest
    assert counts == [20, 16, 3, 1]


def test_banded_mbconv_holds_about_the_budget(monkeypatch):
    # beyond its input and output, a banded chain holds a few bands; the
    # whole plane holds the 15.7 MB expand output
    budget = 1 << 20
    monkeypatch.setattr(layers, "BAND_BYTES", budget)
    chain = _chain(mbconv_stages(16, 24, 3, 6, 2))
    x = Tensor(np.random.default_rng(3).standard_normal((1, 16, 160, 256)).astype(np.float32))
    with no_grad():
        tracemalloc.start()
        try:
            out = chain(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - out.data.nbytes < 4 * budget


@pytest.mark.parametrize("mode", ["train", "recorded-eval"])
def test_recorded_and_training_forwards_run_whole_planes(monkeypatch, mode):
    monkeypatch.setattr(layers, "BAND_BYTES", 1)
    chain = _chain(mbconv_stages(64, 48, 3, 6, 1))
    x = np.random.default_rng(4).standard_normal((1, 64, 49, 64)).astype(np.float32)
    with count_madds() as counter:
        chain(Tensor(x), training=mode == "train")
    assert counter.conv_calls == 3


def test_no_desk3_eval_chain_runs_in_bands():
    # the desk3 accuracy evaluation's batch of 32 images, through every candidate
    config = load_bundled_config("desk3")
    net = build_supernet(config, seed=0)
    x = Tensor(np.zeros((32, 3, *config.input_resolution), dtype=np.float32))
    stages = sum(len(op.stages) for block in net.blocks for layer in block.layers
                 for op in layer) + len(net.stem.stages)
    with no_grad(), count_madds() as counter:
        net.forward(x, training=False)
    assert counter.conv_calls == stages


@pytest.mark.parametrize("kernel", [None, 7], ids=["source", "all-k7"])
def test_table1_verify_networks_band_where_planned(kernel):
    # table1's verify runs one 800x1088 probe through the default source and
    # its all-k7 growth; at the real budget six of their 22 chains band, and a
    # chain that stops banding raises the adaptation's peak memory
    config = load_bundled_config("table1")
    arch = default_source_architecture(config)
    if kernel is not None:
        arch = dataclasses.replace(arch, blocks=tuple(
            dataclasses.replace(b, ops=tuple(dataclasses.replace(op, kernel=kernel)
                                             for op in b.ops))
            for b in arch.blocks))
    net = instantiate(arch, seed=0)
    chains = [("stem", net.stem)] + [(f"block{i}/layer{j}", chain)
                                     for i, ops in enumerate(net.blocks)
                                     for j, chain in enumerate(ops)]
    shape = (1, 3, *config.input_resolution)
    bands = {}
    with no_grad():
        for name, chain in chains:
            # a zero-stride input: the plan reads only its shape
            bands[name] = chain._bands(Tensor(np.broadcast_to(np.float32(0), shape)))
            h, w = shape[2:]
            for s in chain.stages:
                h, w = layers.out_hw(h, w, s.stride)
            shape = (1, chain.stages[-1].c_out, h, w)
    assert len(bands) == 22
    assert {name: n for name, n in bands.items() if n > 1} == {
        "stem": 3, "block0/layer0": 10, "block0/layer1": 4, "block0/layer2": 4,
        "block0/layer3": 4, "block1/layer0": 4}
