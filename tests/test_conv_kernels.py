"""Conv fast paths against the im2col reference, train batch norm against
float64 and its fused relu6 against a separate one, and phase-scoped
gradients.

``conv2d`` sends depthwise convs on small planes to batched matmuls with
Toeplitz matrices, of whole planes ("toeplitz") or of blocks of two
output rows ("band"). On larger planes a recorded conv runs the band and
an unrecorded one a forward-only tap loop of shifted
multiply-accumulates over flat phase planes ("taps"); ``_dw_kernel``
picks one of the three from the shape and from whether the conv is
recorded. Stride-1 1x1 convs run as one matmul. ``_conv_im2col`` handles
every shape and stays the oracle here. The fast paths sum in another
order, so they agree with it to float32 rounding, not bit for bit; the
tap loop is also pinned bit for bit to a numpy sum of shifted products,
up to the sign of an exact zero where it skips taps that are zero in
every channel.
Parity tests force the depthwise kernel they test, so each keeps its
coverage whatever the shape rule picks; the tap loop's run under
``no_grad`` and check the forward only, some on inputs in NCHW and in
NHWC memory. Two tests pin the rule's choices on the desk3 and table1
shapes and the kernels a desk3 run reaches.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import nasadapt
from nasadapt.cli import end_to_end
from nasadapt.derive import arch_layers, default_source_architecture
from nasadapt.errors import ContractError
from nasadapt.layers import stem_stages
from nasadapt.numerics import Tensor, batch_norm, conv2d, count_madds, no_grad, relu6
from nasadapt.numerics import tensor as engine
from nasadapt.searchloop import SEARCH_BATCH_SIZE, SearchSchedule, search
from nasadapt.searchspace import bundled_config_path, load_bundled_config
from nasadapt.supernet import build_supernet
from nasadapt.toytask import (EVAL_BATCH_SIZE, FINETUNE_BATCH_SIZE, DatasetSpec, ProxyHead,
                               generate)

from helpers import check_gradients, rand_tensor

# Absolute tolerances for N(0, 1) data, set from float32 rounding: an
# output or input-gradient entry sums at most 49 (k=7 taps) or 24 (C_in)
# products, a weight-gradient entry up to N*H_out*W_out = 800 of them.
# The largest deviations seen over the cases below: 7.7e-6 (forward and
# input gradient) and 9.9e-5 (weight gradient).
FWD_ATOL = 2e-5
GX_ATOL = 2e-5
GW_ATOL = 2e-4

SPATIAL = [(9, 9), (10, 8)]  # odd and even sizes
BATCH = [1, 8]


def _oracle(x, w, stride, padding, groups):
    return engine._conv_im2col(x, w, stride, padding, groups, True, True)


def _fast(x, w, stride, padding, groups, x_grad=True, w_grad=True):
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=w_grad)
    out = conv2d(xt, wt, stride=stride, padding=padding, groups=groups)
    return out.data, out.node.backward_fn


def _assert_parity(x, w, stride, padding, groups, rng, x_grad=True, w_grad=True):
    want, want_bw = _oracle(x, w, stride, padding, groups)
    got, got_bw = _fast(x, w, stride, padding, groups, x_grad, w_grad)
    assert got.shape == want.shape
    gout = rng.standard_normal(want.shape).astype(np.float32)
    (want_gx, want_gw), (got_gx, got_gw) = want_bw(gout), got_bw(gout)
    np.testing.assert_allclose(got, want, rtol=0, atol=FWD_ATOL)
    assert (got_gx is None) == (not x_grad) and (got_gw is None) == (not w_grad)
    if x_grad:
        np.testing.assert_allclose(got_gx, want_gx, rtol=0, atol=GX_ATOL)
    if w_grad:
        np.testing.assert_allclose(got_gw, want_gw, rtol=0, atol=GW_ATOL)


def _assert_forward_parity(x, w, stride, padding, groups, x_grad=True, w_grad=True):
    """The forward against the oracle, unrecorded, as the tap loop only runs."""
    want, _ = _oracle(x, w, stride, padding, groups)
    with no_grad():
        got = conv2d(Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad),
                     stride=stride, padding=padding, groups=groups)
    assert got.node is None
    np.testing.assert_allclose(got.data, want, rtol=0, atol=FWD_ATOL)


TAP_LOOP = "taps"
# The tap loop reads its input through whatever strides it has; tests
# parametrized by layout hand it the same values in NCHW ("channels-first")
# or NHWC ("channels-last") memory.
LAYOUTS = ("channels-first", "channels-last")


def _in_layout(x, layout):
    """``x`` (NCHW values) in NCHW memory, or in NHWC memory seen as NCHW."""
    if layout == "channels-first":
        return x
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _force_kernel(monkeypatch, kernel):
    """Send every depthwise conv to ``kernel``; return the shapes that asked.

    The tap loop has no backward, so a recorded conv is refused it here
    rather than left to fail inside ``backward``.
    """
    asked = []

    def force(*args):  # the shape, then whether the conv is recorded
        if args[-1] and kernel == TAP_LOOP:
            raise AssertionError(f"a recorded conv cannot run the forward-only {kernel} loop")
        asked.append(args)
        return kernel

    monkeypatch.setattr(engine, "_dw_kernel", force)
    return asked


def _spy_kernel(monkeypatch):
    """Let the shape rule choose; return the kernels it chose, in call order."""
    chosen, choose = [], engine._dw_kernel
    monkeypatch.setattr(engine, "_dw_kernel",
                        lambda *args: chosen.append(choose(*args)) or chosen[-1])
    return chosen


def _spy_blocks(monkeypatch):
    """Record the channel and output-row starts of each tap-loop call's blocks."""
    blocks, product = [], engine.product

    def spy(chans, rows):
        blocks.append((list(chans), list(rows)))
        return product(chans, rows)

    monkeypatch.setattr(engine, "product", spy)
    return blocks


@pytest.mark.parametrize("layout", LAYOUTS)
def test_force_kernel_refuses_the_tap_loop_to_a_recorded_conv(monkeypatch, layout):
    asked = _force_kernel(monkeypatch, TAP_LOOP)
    x = Tensor(_in_layout(np.zeros((1, 2, 5, 5), np.float32), layout), requires_grad=True)
    w = Tensor(np.zeros((2, 1, 3, 3), np.float32))
    with pytest.raises(AssertionError, match="recorded conv"):
        conv2d(x, w, padding=1, groups=2)
    with no_grad():
        assert conv2d(x, w, padding=1, groups=2).node is None
    assert len(asked) == 1


@pytest.mark.parametrize("blocks", ["one-block", "row-blocks"])
@pytest.mark.parametrize("batch", BATCH)
@pytest.mark.parametrize("hw", SPATIAL, ids=["odd", "even"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_depthwise_matches_im2col(monkeypatch, k, stride, hw, batch, blocks):
    c, padding = 7, (k - 1) // 2
    h, w = hw
    oh, ow = (engine._out_size(size, k, stride, padding) for size in hw)
    row_bytes = stride * stride * batch * (ow + (k - 1) // stride) * 4  # one plane per output row
    # row-blocks: two output rows of one plane per block, so an odd row
    # count ends in a short block
    budget = 2 * row_bytes if blocks == "row-blocks" else 1 << 30
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", budget)
    asked, split = _force_kernel(monkeypatch, TAP_LOOP), _spy_blocks(monkeypatch)
    rng = np.random.default_rng(k * 100 + stride * 10 + batch)
    x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_forward_parity(x, wd, stride, padding, c)
    assert len(asked) == 1
    assert split == [(list(range(c)), list(range(0, oh, 2))) if blocks == "row-blocks"
                     else ([0], [0])]


@pytest.mark.parametrize("blocks", ["planes", "plane-rows"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_channels_first_depthwise_matches_im2col(monkeypatch, k, stride, blocks):
    # NCHW input split by channel: test_depthwise_matches_im2col covers one
    # block and row blocks of every plane, this the whole-plane split and a
    # band of rows of one plane at the second batch size
    batch, c, (h, w), padding = 2, 7, SPATIAL[1], (k - 1) // 2
    oh, ow = (engine._out_size(size, k, stride, padding) for size in (h, w))
    row_bytes = stride * stride * batch * (ow + (k - 1) // stride) * 4  # one plane per output row
    # planes: three whole planes per block, so the last block has one;
    # plane-rows: two output rows of one plane per block
    budget = 3 * oh * row_bytes if blocks == "planes" else 2 * row_bytes
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", budget)
    asked, split = _force_kernel(monkeypatch, TAP_LOOP), _spy_blocks(monkeypatch)
    rng = np.random.default_rng(k * 10 + stride)
    x = _in_layout(rng.standard_normal((batch, c, h, w)).astype(np.float32), "channels-first")
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_forward_parity(x, wd, stride, padding, c)
    assert len(asked) == 1
    assert split == [([0, 3, 6], [0]) if blocks == "planes"
                     else (list(range(c)), list(range(0, oh, 2)))]


def _taps_reference(x, wd, stride, padding):
    """Depthwise conv as the sum of its k^2 shifted products, taps in
    row-major order, each product rounded to float32 before it is added."""
    k = wd.shape[-1]
    oh, ow = (engine._out_size(size, k, stride, padding) for size in x.shape[2:])
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    products = (xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
                * wd[:, 0, ki, kj, None, None] for ki in range(k) for kj in range(k))
    out = next(products)
    for p in products:
        out = out + p
    return out


def _tap_loop_shapes():
    """(n, c, h, w, k, stride, padding) of every conv the tap-loop sweeps run."""
    for n, c, h, w, k, stride in itertools.product([1, 2], [1, 3, 8], [1, 2, 5, 13],
                                                   [1, 4, 16], [1, 3, 5, 7], [1, 2, 3]):
        for padding in range(k):
            if min(h, w) + 2 * padding >= k:
                yield n, c, h, w, k, stride, padding


def _grown(core, k):
    """A kernel grown to k x k by embedding ``core`` at its centre in a zero ring."""
    ring = (k - core.shape[-1]) // 2
    return np.pad(core, ((0, 0), (0, 0), (ring, ring), (ring, ring)))


def test_tap_loop_is_bit_identical_to_the_shifted_product_sum(monkeypatch):
    # a 1 KB block budget gives the sweep's planes every split: one block,
    # blocks of several whole planes, and bands of rows of one plane
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", 1024)
    split = _spy_blocks(monkeypatch)
    rng = np.random.default_rng(18)
    shapes = 0
    for n, c, h, w, k, stride, padding in _tap_loop_shapes():
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
        got = engine._conv_depthwise(x, wd, stride, padding)
        assert np.array_equal(got, _taps_reference(x, wd, stride, padding)), \
            (n, c, h, w, k, stride, padding)
        shapes += 1
    assert shapes > 2000
    assert ([0], [0]) in split
    assert any(len(chans) > 1 and chans[1] - chans[0] > 1 for chans, _ in split)
    assert any(len(rows) > 1 for _, rows in split)


def test_tap_loop_skipping_zero_taps_matches_the_shifted_product_sum(monkeypatch):
    # taps that are zero in every channel are skipped; the sum of the rest
    # equals the full sum up to the sign of an exact zero, which
    # array_equal does not see
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", 1024)
    rng = np.random.default_rng(24)
    for n, c, h, w, k, stride, padding in _tap_loop_shapes():
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        full = rng.standard_normal((c, 1, k, k)).astype(np.float32)
        dead = rng.random((k, k)) < 0.5  # these taps are zero in every channel
        some = rng.random((c, 1, k, k)) < 0.3  # these only in some channels
        kernels = {"random zero taps": np.where(dead | some, np.float32(0), full)}
        if k > 3:
            kernels["k3 core"] = _grown(full[..., :3, :3], k)
        for name, wd in kernels.items():
            got = engine._conv_depthwise(x, wd, stride, padding)
            assert np.array_equal(got, _taps_reference(x, wd, stride, padding)), \
                (name, n, c, h, w, k, stride, padding)
        zero = engine._conv_depthwise(x, np.zeros_like(full), stride, padding)
        assert not zero.any() and not np.signbit(zero).any()


@pytest.mark.parametrize("budget", [1024, None], ids=["blocks", "one-block"])
@pytest.mark.parametrize("stride", [1, 2])
def test_tap_loop_propagates_nan_and_inf_that_only_zero_taps_read(monkeypatch, stride,
                                                                  budget):
    # 0 * NaN and 0 * inf are NaN, so a block that reads a non-finite value
    # runs every tap; with small blocks, the other blocks still skip
    if budget:
        monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", budget)
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 3, 13, 16)).astype(np.float32)
    x[0, 1, 0, 0], x[1, 2, 12, 9] = np.nan, np.inf
    wd = _grown(rng.standard_normal((3, 1, 3, 3)).astype(np.float32), 7)
    with np.errstate(invalid="ignore"):
        got = engine._conv_depthwise(x, wd, stride, 3)
        want = _taps_reference(x, wd, stride, 3)
        core = engine._conv_depthwise(x, wd[..., 2:5, 2:5], stride, 1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).sum() > np.isnan(core).sum() > 0


def test_tap_loop_multiplies_only_the_live_taps_of_a_grown_kernel(monkeypatch):
    # a k7 kernel with a k3 core runs 9 taps per block, not 49
    calls = []
    multiply = np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a, **kw: calls.append(1) or multiply(*a, **kw))
    rng = np.random.default_rng(26)
    x = rng.standard_normal((1, 4, 9, 9)).astype(np.float32)
    core = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    engine._conv_depthwise(x, _grown(core, 7), 1, 3)
    assert len(calls) == 9
    calls.clear()
    engine._conv_depthwise(x, _grown(core, 7) + np.float32(1), 1, 3)
    assert len(calls) == 49


def test_tap_loop_holds_no_copy_of_its_input(monkeypatch):
    # beyond its output, an unrecorded conv past the Toeplitz budget holds
    # only block-sized buffers, never a padded copy of its whole input
    kernels = _spy_kernel(monkeypatch)
    rng = np.random.default_rng(19)
    x = rng.standard_normal((1, 16, 160, 160)).astype(np.float32)
    wd = rng.standard_normal((16, 1, 7, 7)).astype(np.float32)
    tracemalloc.start()
    try:
        with no_grad():
            out = conv2d(Tensor(x), Tensor(wd), padding=3, groups=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernels == [TAP_LOOP] and x.nbytes > 3 * engine._DW_BLOCK_BYTES
    assert peak - out.data.nbytes < 3 * engine._DW_BLOCK_BYTES


def test_tap_loop_and_eval_affine_restore_the_ufunc_buffer_size(monkeypatch):
    # both run with small ufunc buffers (the shifted-product test above pins
    # the tap loop's bits against numpy's default ones); callers keep theirs
    sizes = []
    multiply = np.multiply
    monkeypatch.setattr(np, "multiply", lambda *a, **kw: sizes.append(np.getbufsize())
                        or multiply(*a, **kw))
    rng = np.random.default_rng(20)
    x = rng.standard_normal((1, 4, 9, 9)).astype(np.float32)
    wd = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    before = np.getbufsize()
    out = engine._conv_depthwise(x, wd, 1, 1)
    with no_grad():
        batch_norm(Tensor(out), np.ones(4, np.float32), np.zeros(4, np.float32),
                   np.zeros(4, np.float32), np.ones(4, np.float32), training=False)
    assert np.getbufsize() == before != engine._UFUNC_BUFSIZE
    assert sizes and set(sizes) == {engine._UFUNC_BUFSIZE}


@pytest.mark.parametrize("hw", [(9, 9), (10, 8), (2, 2), (4, 4)],
                         ids=["odd", "even", "2x2", "4x4"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_toeplitz_depthwise_matches_im2col(monkeypatch, k, stride, hw):
    # the 2x2 and 4x4 planes are smaller than the 5x5 and 7x7 kernels
    asked = _force_kernel(monkeypatch, "toeplitz")
    rng = np.random.default_rng(k * 1000 + stride * 100 + hw[0] * 10 + hw[1])
    c, padding = 5, (k - 1) // 2
    x = rng.standard_normal((3, c, *hw)).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_parity(x, wd, stride, padding, c, rng)
    assert len(asked) == 1


@pytest.mark.parametrize("padding", ["same", 0])
@pytest.mark.parametrize("rows", [2, 1, 3], ids=["rows2", "rows1", "rows3"])
@pytest.mark.parametrize("hw", [(16, 16), (13, 13), (14, 11)], ids=["16x16", "odd", "even"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_band_depthwise_matches_im2col(monkeypatch, k, stride, hw, rows, padding):
    # the rule runs blocks of _BAND_ROWS = 2 output rows; 1 and 3 check the
    # slab geometry, and odd output heights end in a block cut short
    monkeypatch.setattr(engine, "_BAND_ROWS", rows)
    asked = _force_kernel(monkeypatch, "band")
    rng = np.random.default_rng(k * 1000 + stride * 100 + rows * 10 + hw[1])
    c, pad = 4, (k - 1) // 2 if padding == "same" else padding
    x = rng.standard_normal((3, c, *hw)).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    oh = engine._out_size(hw[0], k, stride, pad)
    _, blocks, _, _, _ = engine._toeplitz_index(*hw, k, stride, pad, rows)
    assert blocks == -(-oh // rows) > 1
    _assert_parity(x, wd, stride, pad, c, rng)
    assert len(asked) == 1


@pytest.mark.parametrize("x_grad, w_grad", [(True, False), (False, True)],
                         ids=["only-gx", "only-gw"])
@pytest.mark.parametrize("kernel, layout", [
    pytest.param("band", "channels-first", id="band"),
    pytest.param("toeplitz", "channels-first", id="toeplitz"),
    *(pytest.param(TAP_LOOP, layout, id=layout) for layout in LAYOUTS),
])
def test_phase_scoped_depthwise_matches_im2col(monkeypatch, kernel, layout, x_grad, w_grad):
    _force_kernel(monkeypatch, kernel)
    rng = np.random.default_rng(13)
    x = _in_layout(rng.standard_normal((2, 6, 7, 6)).astype(np.float32), layout)
    wd = rng.standard_normal((6, 1, 5, 5)).astype(np.float32)
    if kernel == TAP_LOOP:  # forward only
        _assert_forward_parity(x, wd, 2, 2, 6, x_grad=x_grad, w_grad=w_grad)
    else:
        _assert_parity(x, wd, 2, 2, 6, rng, x_grad=x_grad, w_grad=w_grad)


def test_long_and_short_rows_run_the_one_tap_loop(monkeypatch):
    # past the Toeplitz budget, an unrecorded conv runs the tap loop
    # whatever its row length: 80- and 79-wide rows, and 24-wide ones
    chosen = _spy_kernel(monkeypatch)
    rng = np.random.default_rng(12)
    for shape in ((1, 3, 5, 80), (1, 3, 5, 79), (1, 64, 24, 24)):
        x = rng.standard_normal(shape).astype(np.float32)
        wd = rng.standard_normal((shape[1], 1, 5, 5)).astype(np.float32)
        _assert_forward_parity(x, wd, 1, 2, shape[1])
    assert chosen == [TAP_LOOP] * 3


@pytest.mark.parametrize("shape, k, stride", [
    ((1, 3, 5, 80), 5, 1), ((2, 16, 12, 12), 3, 1), ((1, 8, 24, 24), 7, 2)],
    ids=["long-row", "many-channels", "k7-stride2"])
def test_recorded_depthwise_past_the_budget_runs_the_band(monkeypatch, shape, k, stride):
    # these shapes hold more Toeplitz entries than the budget, so unrecorded
    # they run the tap loop; recorded, they need a backward and run the band
    n, c, h, w = shape
    padding = (k - 1) // 2
    assert engine._dw_kernel(n, c, h, w, k, stride, padding, False) == TAP_LOOP
    chosen = _spy_kernel(monkeypatch)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_parity(x, wd, stride, padding, c, rng)
    assert chosen == ["band"]


def test_every_desk3_depthwise_conv_runs_the_tap_loop_unrecorded(monkeypatch):
    # desk3 trains on 32x32 inputs, so its planes are at most 16 wide; with
    # the Toeplitz kernel shut off the tap loop runs every one of them in an
    # unrecorded forward
    monkeypatch.setattr(engine, "_TOEPLITZ_ENTRIES", 0)
    chosen = []
    choose = engine._dw_kernel
    monkeypatch.setattr(engine, "_dw_kernel",
                        lambda *args: chosen.append((args[3], choose(*args))) or chosen[-1][1])
    cfg = load_bundled_config("desk3")
    x = Tensor(np.zeros((2, 3, *cfg.input_resolution), dtype=np.float32))
    with no_grad():
        build_supernet(cfg, seed=0).forward(x, training=True)
    assert chosen and all(kernel == TAP_LOOP for _, kernel in chosen)
    assert max(w for w, _ in chosen) == cfg.input_resolution[1] // 2


def _dw_shapes(arch, n):
    """(n, c, h, w, k, stride, padding) of each depthwise conv of a network."""
    h, w = arch.input_resolution
    shapes = []
    for s in stem_stages(arch.stem) + tuple(
            stage for layers in arch_layers(arch) for _, stages in layers for stage in stages):
        if s.groups > 1:
            shapes.append((n, s.c_in, h, w, s.kernel, s.stride, s.padding))
        h, w = (h - 1) // s.stride + 1, (w - 1) // s.stride + 1
    return shapes


def test_depthwise_kernel_choice_on_desk3_and_table1_shapes(monkeypatch):
    # desk3 trains and evaluates on 32x32 inputs, so its planes are at most
    # 16x16: every depthwise conv of a supernet forward runs as a matmul,
    # in blocks of two output rows on the 16x16 planes
    cfg = load_bundled_config("desk3")
    net = build_supernet(cfg, seed=0)
    choose = engine._dw_kernel
    desk3 = []
    monkeypatch.setattr(engine, "_dw_kernel",
                        lambda *args: desk3.append((args, choose(*args))) or choose(*args))
    for n in (SEARCH_BATCH_SIZE, FINETUNE_BATCH_SIZE, EVAL_BATCH_SIZE):
        net.forward(Tensor(np.zeros((n, 3, *cfg.input_resolution), dtype=np.float32)),
                    training=True)
    assert len(desk3) == 3 * 13 and max(args[2] for args, _ in desk3) == 16
    by_plane = {}
    for (n, c, h, w, k, stride, padding, recorded), kernel in desk3:
        assert recorded
        by_plane.setdefault((h, stride), set()).add(kernel)
    assert by_plane == {
        (16, 1): {"band"}, (16, 2): {"band"}, (8, 1): {"toeplitz"}, (8, 2): {"toeplitz"},
        (4, 1): {"toeplitz"}, (4, 2): {"toeplitz"}, (2, 1): {"toeplitz"},
    }
    # at any batch size a recorded desk3 conv runs a Toeplitz kernel, which
    # has a backward
    for (_, *shape, _), _ in desk3:
        for n in range(1, 33):
            assert choose(n, *shape, True) in {"band", "toeplitz"}, (n, shape)
    # table1 verify runs one 800x1088 image, unrecorded, through the k3
    # default source and its all-k7 growth (the stem stays k3): every
    # depthwise conv runs the tap loop; recorded, those shapes would run
    # the band
    source = default_source_architecture(load_bundled_config("table1"))
    grown = replace(source, blocks=tuple(
        replace(b, ops=tuple(replace(op, kernel=7) for op in b.ops)) for b in source.blocks))
    table1 = set(_dw_shapes(source, 1) + _dw_shapes(grown, 1))
    assert len(table1) == 19
    for shape in table1:
        assert (choose(*shape, False), choose(*shape, True)) == (TAP_LOOP, "band"), shape


@pytest.mark.parametrize("batch", BATCH)
@pytest.mark.parametrize("hw", SPATIAL, ids=["odd", "even"])
def test_pointwise_matches_im2col(hw, batch):
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 24, *hw)).astype(np.float32)
    w = rng.standard_normal((16, 24, 1, 1)).astype(np.float32)
    _assert_parity(x, w, 1, 0, 1, rng)


def test_dense_stem_is_the_im2col_path():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 9, 10)).astype(np.float32)
    w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
    want, want_bw = _oracle(x, w, 2, 1, 1)
    got, got_bw = _fast(x, w, 2, 1, 1)
    gout = rng.standard_normal(want.shape).astype(np.float32)
    assert got.tobytes() == want.tobytes()
    for a, b in zip(got_bw(gout), want_bw(gout)):
        assert a.tobytes() == b.tobytes()


# conv is linear in each operand, so a central difference is exact at any
# step; a large one keeps float32 forward noise out of the estimate
FD_STEP = 1e-2


def test_depthwise_stride2_k7_finite_differences(monkeypatch):
    # with the Toeplitz budget at 0 every conv is past it: recorded, the band runs
    monkeypatch.setattr(engine, "_TOEPLITZ_ENTRIES", 0)
    chosen = _spy_kernel(monkeypatch)
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (2, 3, 9, 8), scale=0.5)
    w = rand_tensor(rng, (3, 1, 7, 7), scale=0.5)
    r = Tensor(rng.standard_normal((2, 3, 5, 4)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w, stride=2, padding=3, groups=3) * r).sum(),
                    [x, w], h=FD_STEP, what="depthwise k7 stride 2")
    assert set(chosen) == {"band"}


@pytest.mark.parametrize("hw, k, stride", [((6, 5), 5, 1), ((9, 8), 7, 2), ((2, 2), 5, 1)],
                         ids=["k5", "k7-stride2", "2x2-k5"])
def test_toeplitz_depthwise_finite_differences(monkeypatch, hw, k, stride):
    _force_kernel(monkeypatch, "toeplitz")
    rng = np.random.default_rng(14)
    padding = (k - 1) // 2
    x = rand_tensor(rng, (2, 3, *hw), scale=0.5)
    w = rand_tensor(rng, (3, 1, k, k), scale=0.5)
    oh, ow = (engine._out_size(size, k, stride, padding) for size in hw)
    r = Tensor(rng.standard_normal((2, 3, oh, ow)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w, stride=stride, padding=padding, groups=3) * r).sum(),
                    [x, w], h=FD_STEP, what=f"toeplitz depthwise k{k} stride {stride}")


@pytest.mark.parametrize("hw, k, stride", [((9, 8), 3, 1), ((10, 9), 5, 2), ((9, 9), 7, 1)],
                         ids=["k3-odd", "k5-stride2", "k7"])
def test_band_depthwise_finite_differences(monkeypatch, hw, k, stride):
    _force_kernel(monkeypatch, "band")
    rng = np.random.default_rng(15)
    padding = (k - 1) // 2
    x = rand_tensor(rng, (2, 3, *hw), scale=0.5)
    w = rand_tensor(rng, (3, 1, k, k), scale=0.5)
    oh, ow = (engine._out_size(size, k, stride, padding) for size in hw)
    r = Tensor(rng.standard_normal((2, 3, oh, ow)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w, stride=stride, padding=padding, groups=3) * r).sum(),
                    [x, w], h=FD_STEP, what=f"band depthwise k{k} stride {stride}")


def test_pointwise_finite_differences():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (2, 4, 3, 5), scale=0.5)
    w = rand_tensor(rng, (3, 4, 1, 1), scale=0.5)
    r = Tensor(rng.standard_normal((2, 3, 3, 5)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w) * r).sum(), [x, w], h=FD_STEP,
                    what="pointwise")


# Runs in a child process: depthwise conv and train batch norm, forward and
# backward, over every depthwise and batch-norm shape of a desk3 supernet
# forward at each training and eval batch size, then a short desk3 e2e, then
# the unrecorded eval forwards of the seed-1 table1 default source and its
# k7-grown target at 200x272, with 256 KB bands and with the default
# BAND_BYTES. Prints each primitive's shape count and one sha256 of its
# outputs, gradients and running buffers, then the e2e's file count and one
# sha256 of its printed summary and every artifact, then for each band size
# the number of banded chain calls and one sha256 of both networks' features.
_DESK3_DIGEST = """
import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from nasadapt import cli, layers
from nasadapt.derive import default_source_architecture, instantiate
from nasadapt.numerics import Tensor, batch_norm, conv2d, no_grad, tensor as engine
from nasadapt.paramap import ParameterBundle, map_to_derived
from nasadapt.searchloop import SEARCH_BATCH_SIZE
from nasadapt.searchspace import bundled_config_path, load_bundled_config
from nasadapt.supernet import build_supernet
from nasadapt.toytask import EVAL_BATCH_SIZE, FINETUNE_BATCH_SIZE

cfg = load_bundled_config("desk3")
dw_shapes, bn_shapes = set(), set()
choose, norm = engine._dw_kernel, layers.batch_norm
engine._dw_kernel = lambda *args: dw_shapes.add(args[:-1]) or choose(*args)
layers.batch_norm = lambda x, *args, **kw: bn_shapes.add(x.shape) or norm(x, *args, **kw)
net = build_supernet(cfg, seed=0)
for n in (SEARCH_BATCH_SIZE, FINETUNE_BATCH_SIZE, EVAL_BATCH_SIZE):
    net.forward(Tensor(np.zeros((n, 3, *cfg.input_resolution), np.float32)), training=True)
engine._dw_kernel, layers.batch_norm = choose, norm
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n, c, h, w, k, stride, padding in sorted(dw_shapes):
    x = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32), requires_grad=True)
    wd = Tensor(rng.standard_normal((c, 1, k, k)).astype(np.float32), requires_grad=True)
    out = conv2d(x, wd, stride=stride, padding=padding, groups=c)
    gx, gw = out.node.backward_fn(rng.standard_normal(out.shape).astype(np.float32))
    for a in (out.data, gx, gw):
        digest.update(a.tobytes())
print(len(dw_shapes), digest.hexdigest())
digest = hashlib.sha256()
for shape in sorted(bn_shapes):
    c = shape[1]
    x = Tensor((rng.standard_normal(shape) * 2 + 0.5).astype(np.float32), requires_grad=True)
    gamma = Tensor((rng.standard_normal(c) + 1).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.standard_normal(c).astype(np.float32), requires_grad=True)
    mean, var = np.zeros(c, np.float32), np.ones(c, np.float32)
    out = batch_norm(x, gamma, beta, mean, var, training=True)
    grads = out.node.backward_fn(rng.standard_normal(shape).astype(np.float32))
    for a in (out.data, *grads, mean, var):
        digest.update(a.tobytes())
print(len(bn_shapes), digest.hexdigest())
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as summary:
    assert cli.main(["e2e", "--space", str(bundled_config_path("desk3")), "--seed", "3",
                     "--out-dir", out, "--samples", "64", "--epochs", "2", "--warmup", "1",
                     "--pretrain-epochs", "1", "--finetune-epochs", "1"]) == 0
    files = sorted(Path(out).iterdir())
    digest = hashlib.sha256(summary.getvalue().encode())
    for p in files:
        digest.update(p.name.encode() + p.read_bytes())
print(len(files), digest.hexdigest())
source = replace(default_source_architecture(load_bundled_config("table1")),
                 input_resolution=(200, 272))
grown = replace(source, blocks=tuple(
    replace(b, ops=tuple(replace(op, kernel=7) for op in b.ops)) for b in source.blocks))
net = instantiate(source, seed=1)
mapped, _ = map_to_derived(ParameterBundle(tensors=net.to_arrays(), arch=source), grown,
                           eps=0.0)
nets = (net, instantiate(grown, arrays=mapped.tensors))
x = Tensor(np.random.default_rng(1).random((1, 3, 200, 272), dtype=np.float32))
banded, band = [], layers.ConvChain._banded
layers.ConvChain._banded = lambda self, *args: banded.append(args[1]) or band(self, *args)
for band_bytes in (256 << 10, layers.BAND_BYTES):
    layers.BAND_BYTES = band_bytes
    banded.clear()
    digest = hashlib.sha256()
    with no_grad():
        for net in nets:
            for feat in net.forward(x, training=False):
                digest.update(feat.data.tobytes())
    print(len(banded), digest.hexdigest())
"""


@lru_cache(maxsize=None)
def _desk3_digests(threads):
    """{"depthwise"|"batch_norm": (shape count, sha256), "e2e": (file count,
    sha256), "table1-256k"|"table1": (banded chain calls, sha256)} from a
    child process."""
    src = str(Path(nasadapt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for var in ("NAS_ADAPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", _DESK3_DIGEST], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    keys = ("depthwise", "batch_norm", "e2e", "table1-256k", "table1")
    return {key: (int(n), sha) for key, (n, sha) in zip(keys, lines, strict=True)}


def test_depthwise_bytes_do_not_depend_on_the_thread_count():
    # the batched matmuls of the Toeplitz kernel go through BLAS, which may
    # split them across threads; each output must still sum in one order
    one, two = _desk3_digests(1)["depthwise"], _desk3_digests(2)["depthwise"]
    assert one[0] > 20 and one == two


def test_train_batch_norm_bytes_do_not_depend_on_the_thread_count():
    # train batch norm sums with numpy's own reductions, never BLAS
    one, two = _desk3_digests(1)["batch_norm"], _desk3_digests(2)["batch_norm"]
    assert one[0] > 20 and one == two


def test_e2e_bytes_do_not_depend_on_the_thread_count():
    # every artifact of a short desk3 e2e, and the summary it prints
    one, two = _desk3_digests(1)["e2e"], _desk3_digests(2)["e2e"]
    assert one[0] == 11 and one == two


def test_table1_eval_bytes_do_not_depend_on_the_bands_or_the_thread_count():
    # the tap loop, the bands and the large pointwise matmuls, which no desk3
    # shape reaches: small bands split chains that run whole planes by default
    one, two = _desk3_digests(1), _desk3_digests(2)
    small, default = one["table1-256k"], one["table1"]
    assert small[0] > default[0] and small[1] == default[1]
    assert (small, default) == (two["table1-256k"], two["table1"])


def test_desk3_run_reaches_no_tap_loop_and_records_no_eval_batch_norm(monkeypatch, tmp_path):
    # a short desk3 e2e at the default batch sizes, one epoch per stage: the
    # forward-only kernels never see a recorded input, and a recorded eval
    # batch norm would raise
    kernels = _spy_kernel(monkeypatch)
    summary = end_to_end(str(bundled_config_path("desk3")), 3, tmp_path, epochs=2, warmup=1,
                         pretrain_epochs=1, finetune_epochs=1)
    assert np.isfinite(summary["final_loss"])
    assert set(kernels) == {"band", "toeplitz"}


def test_madds_count_of_a_supernet_forward_is_unchanged():
    # pinned from the im2col-only engine: dispatch happens after counting
    net = build_supernet(load_bundled_config("desk3"), seed=0)
    with count_madds() as counter:
        net.forward(Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)), training=False)
    assert (counter.conv_calls, counter.madds) == (39, 1840448)


@pytest.mark.parametrize("k, groups, c_out", [(3, 1, 5), (1, 1, 5), (5, 4, 4)],
                         ids=["dense", "pointwise", "depthwise"])
def test_madds_count_per_path(k, groups, c_out):
    x = Tensor(np.zeros((2, 4, 8, 8), dtype=np.float32))
    w = Tensor(np.zeros((c_out, 4 // groups, k, k), dtype=np.float32))
    with count_madds() as counter:
        conv2d(x, w, stride=2 if k > 1 else 1, padding=(k - 1) // 2, groups=groups)
    oh = 4 if k > 1 else 8
    assert counter.conv_calls == 1
    assert counter.madds == 2 * k * k * (4 // groups) * c_out * oh * oh


@pytest.mark.parametrize("x_grad, w_grad", [(True, True), (True, False), (False, True)])
@pytest.mark.parametrize("k, groups, c_out", [(3, 1, 5), (1, 1, 5), (3, 4, 4)],
                         ids=["dense", "pointwise", "depthwise"])
def test_conv_skips_only_unneeded_gradients(k, groups, c_out, x_grad, w_grad):
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32), requires_grad=x_grad)
    w = Tensor(rng.standard_normal((c_out, 4 // groups, k, k)).astype(np.float32),
               requires_grad=w_grad)
    out = conv2d(x, w, padding=(k - 1) // 2, groups=groups)
    gx, gw = out.node.backward_fn(np.ones(out.shape, dtype=np.float32))
    assert (gx is None) == (not x_grad)
    assert (gw is None) == (not w_grad)


def test_input_with_a_node_gets_a_gradient():
    rng = np.random.default_rng(9)
    leaf = rand_tensor(rng, (1, 4, 5, 5))
    w = Tensor(rng.standard_normal((4, 1, 3, 3)).astype(np.float32))
    out = conv2d(relu6(leaf), w, padding=1, groups=4)
    gx, gw = out.node.backward_fn(np.ones(out.shape, dtype=np.float32))
    assert gx is not None and gw is None


def test_batch_norm_skips_only_unneeded_gradients():
    # train mode only: an eval batch norm takes no gradient
    rng = np.random.default_rng(10)
    xd = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    gout = rng.standard_normal(xd.shape).astype(np.float32)

    def grads(x_grad, gamma_grad, beta_grad):
        out = batch_norm(Tensor(xd, requires_grad=x_grad),
                         Tensor(np.full(3, 1.5, np.float32), requires_grad=gamma_grad),
                         Tensor(np.zeros(3, np.float32), requires_grad=beta_grad),
                         np.zeros(3, np.float32), np.ones(3, np.float32), training=True)
        return out.node.backward_fn(gout)

    full = grads(True, True, True)
    # the search's arch step wants only dx; its weight step only gamma and beta
    # on a layer whose input needs no gradient
    for needed in [(False, True, False), (True, False, False), (False, True, True),
                   (False, False, True)]:
        got = grads(*needed)
        for need, g, want in zip(needed, got, full):
            assert (g is None) == (not need)
            assert g is None or g.tobytes() == want.tobytes()


def test_batch_norm_running_var_is_the_two_pass_variance(monkeypatch):
    # a mean 300 standard deviations from zero: E[x^2] - mean^2 in float32
    # would lose the variance to cancellation (2.7e-2 off), two passes keep
    # it to float32 rounding
    monkeypatch.setattr(engine, "BN_MOMENTUM", 1.0)  # running_var becomes the batch variance
    rng = np.random.default_rng(11)
    x = (rng.standard_normal((4, 5, 6, 7)) * 3 + 1000).astype(np.float32)
    rm, rv = np.zeros(5, np.float32), np.zeros(5, np.float32)
    batch_norm(Tensor(x), Tensor(np.ones(5, np.float32)), Tensor(np.zeros(5, np.float32)),
               rm, rv, training=True)
    want = x.astype(np.float64).var(axis=(0, 2, 3))
    assert float(np.abs(rv - want).max() / want.max()) <= 2e-6


def _desk3_batch_norm_shapes(monkeypatch):
    """Input shapes of every batch norm of a desk3 supernet forward at each
    training and eval batch size."""
    import nasadapt.layers as layers

    cfg = load_bundled_config("desk3")
    net, shapes, norm = build_supernet(cfg, seed=0), set(), layers.batch_norm
    monkeypatch.setattr(layers, "batch_norm",
                        lambda x, *args, **kw: shapes.add(x.shape) or norm(x, *args, **kw))
    for n in (SEARCH_BATCH_SIZE, FINETUNE_BATCH_SIZE, EVAL_BATCH_SIZE):
        net.forward(Tensor(np.zeros((n, 3, *cfg.input_resolution), np.float32)), training=True)
    monkeypatch.setattr(layers, "batch_norm", norm)
    return sorted(shapes)


def _train_batch_norm_float64(x, gamma, beta, g):
    """Output, dx, dgamma, dbeta, batch mean and variance, all in float64."""
    x, gamma, beta, g = (a.astype(np.float64) for a in (x, gamma, beta, g))
    axes, c = (0, 2, 3), (slice(None), None, None)
    mean = x.mean(axis=axes)
    var = np.square(x - mean[c]).mean(axis=axes)
    invstd = 1.0 / np.sqrt(var + engine.BN_EPS)
    xhat = (x - mean[c]) * invstd[c]
    dbeta, dgamma, cnt = g.sum(axis=axes), (g * xhat).sum(axis=axes), g.size // x.shape[1]
    dx = (gamma * invstd / cnt)[c] * (cnt * g - dbeta[c] - xhat * dgamma[c])
    return gamma[c] * xhat + beta[c], dx, dgamma, dbeta, mean, var


def test_train_batch_norm_matches_float64_on_desk3_shapes(monkeypatch):
    # the largest deviation seen, relative to the largest entry of each
    # result: 3.3e-7 (dgamma); the bound is 16 float32 unit roundoffs
    shapes = _desk3_batch_norm_shapes(monkeypatch)
    assert len(shapes) > 20
    monkeypatch.setattr(engine, "BN_MOMENTUM", 1.0)  # the buffers become the batch statistics
    rng = np.random.default_rng(16)
    for shape in shapes:
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 0.5).astype(np.float32)
        gamma = (rng.standard_normal(c) + 1).astype(np.float32)
        beta = rng.standard_normal(c).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        mean, var = np.zeros(c, np.float32), np.zeros(c, np.float32)
        out = batch_norm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                         Tensor(beta, requires_grad=True), mean, var, training=True)
        got = (out.data, *out.node.backward_fn(g), mean, var)
        for name, a, want in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got,
                                 _train_batch_norm_float64(x, gamma, beta, g)):
            dev = float(np.abs(a - want).max() / np.abs(want).max())
            assert dev <= 16 * 2.0 ** -24, f"{shape} {name}: {dev:.2e}"


def test_train_epilogue_is_relu6_of_batch_norm_bit_for_bit_on_desk3_shapes(monkeypatch):
    # batch_norm(relu6=True) is one tape node; its output, its three
    # gradients and the running statistics are those of relu6(batch_norm())
    shapes = _desk3_batch_norm_shapes(monkeypatch)
    rng = np.random.default_rng(17)
    clipped = [0, 0]  # outputs clipped to 0 and to 6, over all shapes
    for shape in shapes:
        c = shape[1]
        x = rng.standard_normal(shape).astype(np.float32)
        gamma = (rng.standard_normal(c) * 3).astype(np.float32)
        beta = (rng.standard_normal(c) * 3).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        stats = [(np.zeros(c, np.float32), np.ones(c, np.float32)) for _ in range(2)]
        fused, inner = (batch_norm(*(Tensor(a, requires_grad=True) for a in (x, gamma, beta)),
                                   *stats[i], training=True, relu6=i == 0) for i in range(2))
        outer = relu6(inner)
        got = (fused.data, *fused.node.backward_fn(g), *stats[0])
        want = (outer.data, *inner.node.backward_fn(outer.node.backward_fn(g)[0]), *stats[1])
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got, want):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), f"{shape} {name}"
        clipped[0] += int((fused.data == 0).sum())
        clipped[1] += int((fused.data == 6).sum())
    assert len(shapes) > 20 and min(clipped) > 0


def _tiny_search_setup(seed=3):
    cfg = load_bundled_config("desk3")
    net = build_supernet(cfg, seed=seed)
    ds = generate(DatasetSpec(n_samples=16, seed=seed))
    head = ProxyHead(net.final_channels, ds.spec.n_classes, seed=seed)
    schedule = SearchSchedule(total_epochs=1, warmup_epochs=0, seed=seed)
    return net, ds, head, schedule


def test_search_scopes_gradients_to_the_active_phase(monkeypatch):
    import nasadapt.searchloop as searchloop
    import nasadapt.toytask as toytask

    net, ds, head, schedule = _tiny_search_setup()
    w_params, arch_params = net.weight_params() + head.params(), net.arch_params()
    scopes = []
    real_backward = toytask.backward

    def spy(loss):
        scopes.append(([p.requires_grad for p in w_params],
                       [p.requires_grad for p in arch_params]))
        real_backward(loss)

    monkeypatch.setattr(toytask, "backward", spy)
    monkeypatch.setattr(searchloop, "ProxyHead", lambda *args, **kwargs: head)
    search(net, ds, schedule)
    (w_in_w_step, arch_in_w_step), (w_in_arch_step, arch_in_arch_step) = scopes
    assert all(w_in_w_step) and not any(arch_in_w_step)
    assert not any(w_in_arch_step) and all(arch_in_arch_step)
    assert all(p.requires_grad and p.grad is None for p in w_params + arch_params)


def test_search_restores_requires_grad_after_a_failed_arch_step(monkeypatch):
    import nasadapt.searchloop as searchloop

    net, ds, head, schedule = _tiny_search_setup()
    params = net.weight_params() + head.params() + net.arch_params()
    # a schedule's lambda is finite, so make the first arch-step loss NaN directly
    monkeypatch.setattr(searchloop, "total_loss", lambda m_loss, *_: m_loss * float("nan"))
    monkeypatch.setattr(searchloop, "ProxyHead", lambda *args, **kwargs: head)
    with pytest.raises(ContractError, match="phase arch"):
        search(net, ds, schedule)
    assert all(p.requires_grad for p in params)
