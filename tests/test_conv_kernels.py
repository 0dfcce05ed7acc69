"""Conv fast paths against the im2col reference, and phase-scoped gradients.

``conv2d`` sends depthwise convs to shifted multiply-accumulates and
stride-1 1x1 convs to one matmul; ``_conv_im2col`` handles every shape
and stays the oracle here. The fast paths sum in another order, so they
agree with it to float32 rounding, not bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from nasadapt.errors import ContractError
from nasadapt.numerics import Tensor, batch_norm, conv2d, count_madds, relu6
from nasadapt.numerics import tensor as engine
from nasadapt.searchloop import SearchSchedule, search
from nasadapt.searchspace import load_bundled_config
from nasadapt.supernet import build_supernet
from nasadapt.toytask import DatasetSpec, ProxyHead, generate

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


def _fast(x, w, stride, padding, groups):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride=stride, padding=padding, groups=groups)
    return out.data, out.node.backward_fn


def _assert_parity(x, w, stride, padding, groups, rng):
    want, want_bw = _oracle(x, w, stride, padding, groups)
    got, got_bw = _fast(x, w, stride, padding, groups)
    assert got.shape == want.shape
    gout = rng.standard_normal(want.shape).astype(np.float32)
    (want_gx, want_gw), (got_gx, got_gw) = want_bw(gout), got_bw(gout)
    np.testing.assert_allclose(got, want, rtol=0, atol=FWD_ATOL)
    np.testing.assert_allclose(got_gx, want_gx, rtol=0, atol=GX_ATOL)
    np.testing.assert_allclose(got_gw, want_gw, rtol=0, atol=GW_ATOL)


@pytest.mark.parametrize("blocked", [False, True], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("batch", BATCH)
@pytest.mark.parametrize("hw", SPATIAL, ids=["odd", "even"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_depthwise_matches_im2col(monkeypatch, k, stride, hw, batch, blocked):
    c, padding = 7, (k - 1) // 2
    h, w = hw
    wp = w + 2 * padding
    row_bytes = stride * batch * wp * c * 4
    # row-blocks: 2 output rows per block, so an odd row count ends in a short block
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", 2 * row_bytes if blocked else 1 << 30)
    oh = (h + 2 * padding - k) // stride + 1
    (chans, rows), *_ = engine._dw_blocks(batch, c, oh, wp, stride, channels_last=True)
    assert chans == slice(0, c) and (rows.stop - rows.start == 2) == blocked
    rng = np.random.default_rng(k * 100 + stride * 10 + batch)
    x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_parity(x, wd, stride, padding, c, rng)


@pytest.mark.parametrize("blocks", ["planes", "plane-rows"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_channels_first_depthwise_matches_im2col(monkeypatch, k, stride, blocks):
    # test_depthwise_matches_im2col covers channels-last, which its shapes select
    batch, c, (h, w), padding = 2, 7, SPATIAL[1], (k - 1) // 2
    oh = (h + 2 * padding - k) // stride + 1
    row_bytes = stride * batch * (w + 2 * padding) * 4  # one plane's input per output row
    # planes: three whole planes per block, so the last block has one;
    # plane-rows: two output rows of one plane per block
    budget = 3 * oh * row_bytes if blocks == "planes" else 2 * row_bytes
    monkeypatch.setattr(engine, "_DW_BLOCK_BYTES", budget)
    monkeypatch.setattr(engine, "_dw_channels_last", lambda ow: False)
    (chans, rows), *_ = engine._dw_blocks(batch, c, oh, w + 2 * padding, stride, False)
    assert (chans.stop - chans.start, rows.stop - rows.start) == \
        ((3, oh) if blocks == "planes" else (1, 2))
    rng = np.random.default_rng(k * 10 + stride)
    x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
    wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
    _assert_parity(x, wd, stride, padding, c, rng)


def test_a_long_row_runs_channels_first(monkeypatch):
    # rows of _DW_MIN_PLANE_ROW outputs select channels-first by themselves
    ow = engine._DW_MIN_PLANE_ROW
    assert not engine._dw_channels_last(ow) and engine._dw_channels_last(ow - 1)
    chosen = []
    choose = engine._dw_channels_last
    monkeypatch.setattr(engine, "_dw_channels_last",
                        lambda ow: chosen.append(choose(ow)) or chosen[-1])
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 3, 5, ow)).astype(np.float32)
    wd = rng.standard_normal((3, 1, 5, 5)).astype(np.float32)
    _assert_parity(x, wd, 1, 2, 3, rng)
    assert chosen == [False]


def test_every_desk3_depthwise_conv_runs_channels_last(monkeypatch):
    # desk3 trains on 32x32 inputs: its planes are at most 16 wide
    chosen = []
    choose = engine._dw_channels_last
    monkeypatch.setattr(engine, "_dw_channels_last",
                        lambda ow: chosen.append((ow, choose(ow))) or choose(ow))
    cfg = load_bundled_config("desk3")
    x = Tensor(np.zeros((2, 3, *cfg.input_resolution), dtype=np.float32))
    build_supernet(cfg, seed=0).forward(x, training=True)
    assert chosen and all(last for _, last in chosen)
    assert max(ow for ow, _ in chosen) == cfg.input_resolution[1] // 2


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


def test_depthwise_stride2_k7_finite_differences():
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (2, 3, 9, 8), scale=0.5)
    w = rand_tensor(rng, (3, 1, 7, 7), scale=0.5)
    r = Tensor(rng.standard_normal((2, 3, 5, 4)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w, stride=2, padding=3, groups=3) * r).sum(),
                    [x, w], h=FD_STEP, what="depthwise k7 stride 2")


def test_pointwise_finite_differences():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (2, 4, 3, 5), scale=0.5)
    w = rand_tensor(rng, (3, 4, 1, 1), scale=0.5)
    r = Tensor(rng.standard_normal((2, 3, 3, 5)).astype(np.float32))
    check_gradients(lambda: (conv2d(x, w) * r).sum(), [x, w], h=FD_STEP,
                    what="pointwise")


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


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_skips_only_unneeded_gradients(training):
    rng = np.random.default_rng(10)
    xd = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    gout = rng.standard_normal(xd.shape).astype(np.float32)

    def grads(x_grad, gamma_grad, beta_grad):
        out = batch_norm(Tensor(xd, requires_grad=x_grad),
                         Tensor(np.full(3, 1.5, np.float32), requires_grad=gamma_grad),
                         Tensor(np.zeros(3, np.float32), requires_grad=beta_grad),
                         np.zeros(3, np.float32), np.ones(3, np.float32), training=training)
        return out.node.backward_fn(gout)

    full = grads(True, True, True)
    gx, ggamma, gbeta = grads(False, True, False)
    assert gx is None and gbeta is None and ggamma.tobytes() == full[1].tobytes()
    gx, ggamma, gbeta = grads(True, False, False)
    assert ggamma is None and gbeta is None and gx.tobytes() == full[0].tobytes()


def test_batch_norm_one_pass_variance_is_numpys_two_pass_variance(monkeypatch):
    monkeypatch.setattr(engine, "BN_MOMENTUM", 1.0)  # running_var becomes the batch variance
    rng = np.random.default_rng(11)
    x = (rng.standard_normal((4, 5, 6, 7)) * 3 + 1).astype(np.float32)
    rm, rv = np.zeros(5, np.float32), np.zeros(5, np.float32)
    batch_norm(Tensor(x), Tensor(np.ones(5, np.float32)), Tensor(np.zeros(5, np.float32)),
               rm, rv, training=True)
    assert rv.tobytes() == x.var(axis=(0, 2, 3)).tobytes()


def _tiny_search_setup(seed=3):
    cfg = load_bundled_config("desk3")
    net = build_supernet(cfg, seed=seed)
    ds = generate(DatasetSpec(n_samples=16, seed=seed))
    head = ProxyHead(net.final_channels, ds.spec.n_classes, seed=seed)
    schedule = SearchSchedule(total_epochs=1, warmup_epochs=0, seed=seed)
    return net, ds, head, schedule


def test_search_scopes_gradients_to_the_active_phase(monkeypatch):
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
    search(net, ds, schedule, head=head)
    (w_in_w_step, arch_in_w_step), (w_in_arch_step, arch_in_arch_step) = scopes
    assert all(w_in_w_step) and not any(arch_in_w_step)
    assert not any(w_in_arch_step) and all(arch_in_arch_step)
    assert all(p.requires_grad and p.grad is None for p in w_params + arch_params)


def test_search_restores_requires_grad_after_a_failed_arch_step():
    net, ds, head, schedule = _tiny_search_setup()
    params = net.weight_params() + head.params() + net.arch_params()
    with pytest.raises(ContractError, match="phase arch"):
        # an infinite cost weight makes the first arch-step loss non-finite
        search(net, ds, replace(schedule, lam=float("inf")), head=head)
    assert all(p.requires_grad for p in params)
