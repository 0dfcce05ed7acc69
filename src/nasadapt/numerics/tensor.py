"""Dense float32 tensors with reverse-mode automatic differentiation.

Every primitive records a node linking its inputs to its output; calling
:func:`backward` on a scalar materializes the topologically ordered tape
reachable from it and walks it once in reverse, accumulating gradients
into leaf tensors that were created with ``requires_grad=True``.

The engine is float32 only and CPU only. A tape is confined to the thread
that built it; tensors themselves are safe to hand between threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..errors import ContractError, DimensionError, ParameterError

DTYPE = np.float32

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class _ThreadState(threading.local):
    def __init__(self):
        self.grad_enabled = True
        self.counter: Optional["MAddsCounter"] = None


_STATE = _ThreadState()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation, bookkeeping)."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


class MAddsCounter:
    """Accumulates multiply-add counts and call counts of conv primitives."""

    def __init__(self):
        self.madds = 0
        self.conv_calls = 0


@contextmanager
def count_madds():
    """Instrument conv2d: yields a counter of exact multiply-adds performed.

    Counts one multiply-add per kernel multiplication, i.e.
    ``N * k^2 * (C_in/groups) * C_out * H_out * W_out`` per convolution.
    Normalization, activations, and elementwise arithmetic are excluded.
    """
    prev = _STATE.counter
    counter = MAddsCounter()
    _STATE.counter = counter
    try:
        yield counter
    finally:
        _STATE.counter = prev


class Tensor:
    """A float32 array plus optional gradient buffer and tape linkage."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routes through the recorded primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, index):
        return index_select(self, index)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class TapeNode:
    """One recorded primitive application. It holds its inputs but not its
    output, so a graph is freed by reference counting, without the cyclic GC."""

    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs: Sequence[Tensor],
                 backward_fn: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]]):
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


def trace(root: Tensor) -> list[TapeNode]:
    """Collect the subgraph that produced ``root`` in topological order."""
    nodes: list[TapeNode] = []
    visited: set[int] = set()
    if root.node is None:
        return nodes
    stack: list[tuple[TapeNode, bool]] = [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in visited:
            continue
        if expanded:
            visited.add(id(node))
            nodes.append(node)
        else:
            stack.append((node, True))
            for t in node.inputs:
                if t.node is not None and id(t.node) not in visited:
                    stack.append((t.node, False))
    return nodes


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires_grad leaf.

    Repeated calls add into existing ``.grad`` buffers; call an
    optimizer's ``zero_grad`` between steps.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    # pending output gradients, keyed by the node that produced the output
    grads: dict[int, np.ndarray] = {id(loss.node): np.ones((), dtype=DTYPE)}
    for node in reversed(trace(loss)):
        gout = grads.pop(id(node), None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for t, g in zip(node.inputs, gins):
            if g is None:
                continue
            g = np.asarray(g, dtype=DTYPE)
            if t.node is not None:
                acc = grads.get(id(t.node))
                grads[id(t.node)] = g if acc is None else acc + g
            elif t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g


def _needs_grad(t: Tensor) -> bool:
    """True when gradient flowing into ``t`` reaches a requires_grad leaf."""
    return t.requires_grad or t.node is not None


def _recording(inputs: Sequence[Tensor]) -> bool:
    """True when a primitive applied to ``inputs`` now is put on the tape."""
    return _STATE.grad_enabled and any(_needs_grad(t) for t in inputs)


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _recording(inputs):
        out.requires_grad = True
        out.node = TapeNode(inputs, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcasting replicated."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    out = at.data + bt.data

    def bw(g):
        return _unbroadcast(g, at.data.shape), _unbroadcast(g, bt.data.shape)

    return _record((at, bt), out, bw)


def mul(a, b) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    out = at.data * bt.data

    def bw(g):
        return (_unbroadcast(g * bt.data, at.data.shape),
                _unbroadcast(g * at.data, bt.data.shape))

    return _record((at, bt), out, bw)


def matmul(a, b) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    ad, bd = at.data, bt.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.ndim > 2 or bd.ndim > 2:
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {ad.shape} @ {bd.shape}")
    try:
        out = np.matmul(ad, bd)
    except ValueError as exc:
        raise DimensionError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}") from exc

    def bw(g):
        if ad.ndim == 1 and bd.ndim == 1:  # dot -> scalar
            return g * bd, g * ad
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 1:  # (n,) @ (n,p) -> (p,)
            return bd @ g, np.outer(ad, g)
        # (m,n) @ (n,) -> (m,)
        return np.outer(g, bd), ad.T @ g

    return _record((at, bt), out, bw)


def reshape(t, shape) -> Tensor:
    tt = as_tensor(t)
    out = tt.data.reshape(shape)

    def bw(g):
        return (g.reshape(tt.data.shape),)

    return _record((tt,), out, bw)


def index_select(t, index: int) -> Tensor:
    """Select one element of a 1-D tensor as a scalar tensor."""
    tt = as_tensor(t)
    if tt.data.ndim != 1:
        raise DimensionError(f"index_select expects a 1-D tensor, got shape {tt.data.shape}")
    idx = int(index)
    out = tt.data[idx]

    def bw(g):
        gin = np.zeros_like(tt.data)
        gin[idx] = g
        return (gin,)

    return _record((tt,), out, bw)


def _reduction_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _spread(g, in_shape, axes, keepdims):
    if not keepdims and in_shape:
        g = np.expand_dims(g, axes) if axes else g
    return np.broadcast_to(g, in_shape)


def tensor_sum(t, axis=None, keepdims: bool = False) -> Tensor:
    tt = as_tensor(t)
    axes = _reduction_axes(axis, tt.data.ndim)
    out = tt.data.sum(axis=axes if axes else None, keepdims=keepdims)

    def bw(g):
        return (_spread(g, tt.data.shape, axes, keepdims).astype(DTYPE, copy=False),)

    return _record((tt,), out, bw)


def tensor_mean(t, axis=None, keepdims: bool = False) -> Tensor:
    tt = as_tensor(t)
    axes = _reduction_axes(axis, tt.data.ndim)
    count = int(np.prod([tt.data.shape[a] for a in axes])) if axes else 1
    out = tt.data.mean(axis=axes if axes else None, keepdims=keepdims)

    def bw(g):
        spread = _spread(g, tt.data.shape, axes, keepdims)
        return ((spread / count).astype(DTYPE, copy=False),)

    return _record((tt,), out, bw)


def relu6(t) -> Tensor:
    """Clamp to [0, 6]; subgradient 0 at both kinks."""
    tt = as_tensor(t)
    xd = tt.data
    out = np.clip(xd, 0.0, 6.0)

    def bw(g):
        return (g * ((xd > 0.0) & (xd < 6.0)),)

    return _record((tt,), out, bw)


def softmax(t, axis: int = -1) -> Tensor:
    """Numerically safe softmax (max subtraction) along one axis."""
    tt = as_tensor(t)
    xd = tt.data
    if xd.size == 0:
        raise ParameterError("softmax requires a non-empty input")
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _record((tt,), y, bw)


def _out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _taps(k: int, stride: int, oh: int, ow: int) -> list[tuple[int, slice, slice]]:
    """Each kernel tap's flat index and its row and column slices of the padded input."""
    return [(ki * k + kj, slice(ki, ki + stride * oh, stride), slice(kj, kj + stride * ow, stride))
            for ki in range(k) for kj in range(k)]


def _im2col(xp: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    n, c = xp.shape[:2]
    cols = np.empty((n, c, k * k, oh, ow), dtype=xp.dtype)
    for t, rows, cs in _taps(k, stride, oh, ow):
        cols[:, :, t] = xp[:, :, rows, cs]
    return cols


def _col2im(cols: np.ndarray, xp_shape, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    gx = np.zeros(xp_shape, dtype=cols.dtype)
    for t, rows, cs in _taps(k, stride, oh, ow):
        gx[:, :, rows, cs] += cols[:, :, t]
    return gx


def _conv_im2col(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int, groups: int,
                 need_gx: bool, need_gw: bool):
    """Any grouping: im2col plus one matmul per group. The reference path."""
    n, c_in, h, w = xd.shape
    c_out, cgi, k, _ = wd.shape
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else xd
    xp_shape = xp.shape
    cgo, l, ckk = c_out // groups, oh * ow, cgi * k * k
    cols_m = np.ascontiguousarray(
        _im2col(xp, k, stride, oh, ow).reshape(n, groups, ckk, l).transpose(1, 2, 0, 3)) \
        .reshape(groups, ckk, n * l)
    w_m = wd.reshape(groups, cgo, ckk)
    out = np.matmul(w_m, cols_m).reshape(groups, cgo, n, l).transpose(2, 0, 1, 3) \
        .reshape(n, c_out, oh, ow)
    if not need_gw:
        cols_m = None  # only the weight gradient reads the columns

    def bw(gout):
        go_m = np.ascontiguousarray(
            gout.reshape(n, groups, cgo, l).transpose(1, 2, 0, 3)).reshape(groups, cgo, n * l)
        gx = gw = None
        if need_gw:
            gw = np.matmul(go_m, cols_m.transpose(0, 2, 1)).reshape(c_out, cgi, k, k)
        if need_gx:
            gcols = np.matmul(w_m.transpose(0, 2, 1), go_m) \
                .reshape(groups, ckk, n, l).transpose(2, 0, 1, 3) \
                .reshape(n, c_in, k * k, oh, ow)
            gx = _col2im(gcols, xp_shape, k, stride, oh, ow)[
                :, :, padding:padding + h, padding:padding + w]
        return gx, gw

    return out, bw


# Byte budget for the input one depthwise block reads: all k^2 taps sweep
# the block, so it should stay in a core's L2.
_DW_BLOCK_BYTES = 1 << 19
# A depthwise conv whose Toeplitz matrices (c * oh*ow * h*w entries) hold
# at most this many entries per sample and kernel tap runs as one batched
# matmul. On a 2-core Xeon with one OpenBLAS thread, over a grid of n 1-32,
# c 8-72, planes 2x2-24x24, k 3-7 and stride 1-2, this line picked the
# faster kernel for 424 of 432 shapes, and no miss cost more than 1.6x.
_TOEPLITZ_ENTRIES = 8192
# Tap-loop output rows of at least this many kernel widths run
# channels-first. On the table1 planes channels-first won at every row of
# 136 or more. At rows of 68 with a 3x3 kernel it saved 14 ms on
# 1x768x50x68 and lost 2-3 ms on the two smaller planes; with 5x5 and 7x7
# kernels channels-last won at every row of 68 or fewer.
_DW_ROW_PER_K = 16


def _dw_kernel(n: int, c: int, h: int, w: int, k: int, stride: int, padding: int) -> str:
    """The depthwise kernel for a shape: "toeplitz", "channels-last" or "channels-first".

    The Toeplitz matmul does h*w/k^2 times the tap loop's multiply-adds,
    but in BLAS rather than in 2-3 array passes per tap, so it wins on
    small planes and loses as the operator grows. In the tap loop, a
    channels-last tap's inner loop runs over the channels of one output
    pixel; a channels-first one over one output row of one plane, with
    no transposes into and out of NHWC. Short rows go channels-last.
    """
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    if c * oh * ow * h * w <= _TOEPLITZ_ENTRIES * n * k * k:
        return "toeplitz"
    return "channels-last" if ow < _DW_ROW_PER_K * k else "channels-first"


def _dw_array(make, n: int, h: int, w: int, c: int, channels_last: bool) -> np.ndarray:
    """``make`` (``np.zeros``, ``np.empty``) of an array indexed (n, h, w, c),
    laid out NHWC or NCHW in memory."""
    if channels_last:
        return make((n, h, w, c), dtype=DTYPE)
    return make((n, c, h, w), dtype=DTYPE).transpose(0, 2, 3, 1)


def _dw_blocks(n: int, c: int, oh: int, wp: int, stride: int,
               channels_last: bool) -> list[tuple[slice, slice]]:
    """(channels, output rows) of each block whose input fits the budget.

    Channels-last blocks span every channel, so they are contiguous
    bands of rows; channels-first blocks are as many whole planes as
    fit, or bands of rows of one plane when a plane alone does not.
    """
    row = stride * n * wp * np.dtype(DTYPE).itemsize  # one plane's input per output row
    planes = c if channels_last else max(1, min(c, _DW_BLOCK_BYTES // (row * oh)))
    rows = max(1, min(oh, _DW_BLOCK_BYTES // (row * planes)))
    return [(slice(c0, min(c, c0 + planes)), slice(r0, min(oh, r0 + rows)))
            for c0 in range(0, c, planes) for r0 in range(0, oh, rows)]


def _conv_depthwise(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int,
                    channels_last: bool, need_gx: bool, need_gw: bool):
    """Depthwise conv as k^2 shifted multiply-accumulates, block by block.

    Every buffer is indexed (n, h, w, c) and laid out NHWC when
    ``channels_last``, NCHW otherwise, so one tap loop serves both
    layouts. Its work is linear in the plane, so it takes the planes too
    large for :func:`_conv_toeplitz`.
    """
    n, c, h, w = xd.shape
    k = wd.shape[-1]
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    xp = _dw_array(np.zeros, n, h + 2 * padding, w + 2 * padding, c, channels_last)
    xp[:, padding:padding + h, padding:padding + w] = xd.transpose(0, 2, 3, 1)
    wt = np.ascontiguousarray(wd.reshape(c, k * k).T)
    blocks = []  # (channels, output rows, the input rows they read, the taps over those)
    for chans, orows in _dw_blocks(n, c, oh, xp.shape[2], stride, channels_last):
        r0, r1 = orows.start, orows.stop
        blocks.append((chans, orows, slice(stride * r0, stride * (r1 - 1) + k),
                       _taps(k, stride, r1 - r0, ow)))
    out = _dw_array(np.empty, n, oh, ow, c, channels_last)
    for chans, orows, irows, taps in blocks:
        acc, xb, wb = out[:, orows, :, chans], xp[:, irows, :, chans], wt[:, chans]
        tmp = np.empty_like(acc)
        for t, rows, cs in taps:
            if t == 0:
                np.multiply(xb[:, rows, cs], wb[t], out=acc)
            else:
                np.multiply(xb[:, rows, cs], wb[t], out=tmp)
                acc += tmp
    if not need_gw:
        xp = None  # only the weight gradient reads the padded input

    def bw(gout):
        g = gout.transpose(0, 2, 3, 1)
        if channels_last:
            g = np.ascontiguousarray(g)
        gw = np.zeros((k * k, c), dtype=DTYPE) if need_gw else None
        gxp = _dw_array(np.zeros, n, h + 2 * padding, w + 2 * padding, c, channels_last) \
            if need_gx else None
        for chans, orows, irows, taps in blocks:
            gb, wb = g[:, orows, :, chans], wt[:, chans]
            tmp = np.empty_like(gb)
            for t, rows, cs in taps:
                if need_gw:
                    np.multiply(gb, xp[:, irows, :, chans][:, rows, cs], out=tmp)
                    gw[t, chans] += tmp.sum(axis=(0, 1, 2))
                if need_gx:
                    np.multiply(gb, wb[t], out=tmp)
                    gxp[:, irows, :, chans][:, rows, cs] += tmp
        gx = None
        if need_gx:
            gx = np.ascontiguousarray(
                gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))
        return gx, None if gw is None else gw.T.reshape(wd.shape)

    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)), bw


@lru_cache(maxsize=64)
def _toeplitz_index(h: int, w: int, k: int, stride: int, padding: int) -> np.ndarray:
    """Where each tap sits in a channel's (oh*ow, h*w + 1) Toeplitz matrix.

    Entry ``[l, t]`` is the flat index of tap t's weight in output row l.
    A tap that falls in the padding points at the row's last column,
    which stands for the padding and is never read as input.
    """
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    iy = (np.arange(oh) * stride - padding)[:, None, None, None] + np.arange(k)[:, None]
    ix = (np.arange(ow) * stride - padding)[None, :, None, None] + np.arange(k)
    inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    rows = np.arange(oh * ow).reshape(oh, ow, 1, 1) * (h * w + 1)
    index = (rows + np.where(inside, iy * w + ix, h * w)).reshape(oh * ow, k * k)
    index.flags.writeable = False
    return index


def _conv_toeplitz(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int,
                   need_gx: bool, need_gw: bool):
    """Depthwise conv as one batched matmul with each channel's Toeplitz matrix.

    On an h x w plane, channel c is the linear map ``T_c`` of shape
    (oh*ow, h*w) that holds its k^2 taps, with zeros where a tap falls in
    the padding. The forward is ``T x``, the input gradient ``T^T g``,
    and the weight gradient sums each tap's entries of ``g x^T``. ``T``
    is rebuilt in the backward rather than kept alive.
    """
    n, c, h, w = xd.shape
    k = wd.shape[-1]
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    hw, l = h * w, oh * ow
    index = _toeplitz_index(h, w, k, stride, padding)

    def toeplitz():
        # one extra column takes the taps that fall in the padding
        tp = np.zeros((c, l, hw + 1), dtype=DTYPE)
        tp.reshape(c, l * (hw + 1))[:, index] = wd.reshape(c, 1, k * k)
        return tp[:, :, :hw]

    # (c, n, plane) views of the NCHW arrays
    x3 = xd.reshape(n, c, hw).transpose(1, 0, 2)
    out = np.empty((n, c, oh, ow), dtype=DTYPE)
    out.reshape(n, c, l).transpose(1, 2, 0)[...] = np.matmul(toeplitz(), x3.transpose(0, 2, 1))
    if not need_gw:
        x3 = None  # only the weight gradient reads the input

    def bw(gout):
        g3 = gout.reshape(n, c, l).transpose(1, 0, 2)
        gx = gw = None
        if need_gx:
            gx = np.empty((n, c, h, w), dtype=DTYPE)
            np.matmul(g3, toeplitz(), out=gx.reshape(n, c, hw).transpose(1, 0, 2))
        if need_gw:
            gtp = np.empty((c, l, hw + 1), dtype=DTYPE)
            gtp[:, :, hw] = 0  # the taps that fall in the padding gather zeros
            np.matmul(g3.transpose(0, 2, 1), x3, out=gtp[:, :, :hw])
            gw = np.take(gtp.reshape(c, l * (hw + 1)), index, axis=1).sum(axis=1) \
                .reshape(wd.shape)
        return gx, gw

    return out, bw


def _conv_pointwise(xd: np.ndarray, wd: np.ndarray, need_gx: bool, need_gw: bool):
    """Stride-1 1x1 conv: one matmul of (C_out, C_in) with (N, C_in, H*W)."""
    n, c_in, h, w = xd.shape
    c_out = wd.shape[0]
    w2 = wd.reshape(c_out, c_in)
    x3 = xd.reshape(n, c_in, h * w)
    out = np.matmul(w2, x3).reshape(n, c_out, h, w)

    def bw(gout):
        g3 = gout.reshape(n, c_out, h * w)
        gx = np.matmul(w2.T, g3).reshape(xd.shape) if need_gx else None
        gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).reshape(wd.shape) \
            if need_gw else None
        return gx, gw

    return out, bw


def conv2d(x, weight, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution, NCHW layout, square odd kernels, no bias.

    ``groups=1`` is a dense convolution, ``groups=C_in`` a depthwise one.
    Output spatial size is ``floor((H + 2*padding - k)/stride) + 1``.

    Depthwise convs on small planes run as one batched matmul with each
    channel's Toeplitz matrix, on larger planes as shifted
    multiply-accumulates laid out channels-last or channels-first;
    :func:`_dw_kernel` picks one of the three from the shape alone.
    Stride-1 1x1 convs run as one matmul; every other shape goes through
    im2col. The backward computes the input and weight gradients only
    for the operands that need one when the op is recorded.
    """
    xt, wt = as_tensor(x), as_tensor(weight)
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ParameterError(f"padding must be >= 0, got {padding}")
    if groups < 1:
        raise ParameterError(f"groups must be >= 1, got {groups}")
    xd, wd = xt.data, wt.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input and weight, got {xd.shape} and {wd.shape}")
    n, c_in, h, w = xd.shape
    c_out, c_g, kh, kw = wd.shape
    if kh != kw:
        raise DimensionError(f"kernel must be square, got {kh}x{kw}")
    k = kh
    if k % 2 == 0:
        raise ParameterError(f"kernel size must be odd, got {k}")
    if c_in % groups != 0 or c_out % groups != 0:
        raise DimensionError(f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}")
    if c_g != c_in // groups:
        raise DimensionError(
            f"weight expects {c_g} channels per group, input provides {c_in // groups}")
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    if oh < 1 or ow < 1:
        raise DimensionError(f"kernel {k} does not fit input {h}x{w} with padding {padding}")

    counter = _STATE.counter
    if counter is not None:
        counter.conv_calls += 1
        counter.madds += n * k * k * (c_in // groups) * c_out * oh * ow

    need_gx, need_gw = _needs_grad(xt), _needs_grad(wt)
    if groups == c_in == c_out:
        kernel = _dw_kernel(n, c_in, h, w, k, stride, padding)
        if kernel == "toeplitz":
            out, bw = _conv_toeplitz(xd, wd, stride, padding, need_gx, need_gw)
        else:
            out, bw = _conv_depthwise(xd, wd, stride, padding, kernel == "channels-last",
                                      need_gx, need_gw)
    elif k == 1 and stride == 1 and padding == 0 and groups == 1:
        out, bw = _conv_pointwise(xd, wd, need_gx, need_gw)
    else:
        out, bw = _conv_im2col(xd, wd, stride, padding, groups, need_gx, need_gw)
    return _record((xt, wt), out, bw)


# Float32 magnitudes below this are subnormal. Arithmetic on a subnormal
# operand runs in microcode, up to a hundred times slower than on a normal
# number, and numpy offers no flush-to-zero mode.
_TINY = np.finfo(DTYPE).tiny
# Byte budget for one block of whole channels in the eval affine: the
# flush then reads the block back from cache.
_AFFINE_BLOCK_BYTES = 1 << 18


def _affine(xd: np.ndarray, scale: np.ndarray, shift: np.ndarray, flush: bool) -> np.ndarray:
    """``xd * scale + shift`` per channel of an NCHW array, into a fresh array.

    With ``flush``, every result with ``|y| < finfo(float32).tiny`` becomes
    +0.0 and every other result keeps its bits.
    """
    n, c, h, w = xd.shape
    out = np.empty(xd.shape, dtype=DTYPE)
    step = max(1, _AFFINE_BLOCK_BYTES // (n * h * w * np.dtype(DTYPE).itemsize))
    for c0 in range(0, c, step):
        chans = slice(c0, c0 + step)
        y = out[:, chans]
        np.multiply(xd[:, chans], scale[chans, None, None], out=y)
        y += shift[chans, None, None]
        if flush:
            np.copyto(y, 0, where=np.abs(y) < _TINY)
    return out


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, update_stats: Optional[bool] = None) -> Tensor:
    """Per-channel batch normalization over an NCHW tensor.

    Train mode normalizes by batch statistics (biased variance) and, when
    ``update_stats`` (defaults to ``training``), folds them into the
    running buffers with momentum ``BN_MOMENTUM``. Eval mode is one
    per-channel affine ``x * s + t`` with ``s = gamma / sqrt(running_var +
    BN_EPS)`` and ``t = beta - running_mean * s``; when it is not
    recorded, its output is flushed: every subnormal becomes 0. The
    running buffers are plain arrays mutated in place; they carry no
    gradient.
    """
    xt, gt, bt = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = xt.data
    if xd.ndim != 4:
        raise DimensionError(f"batch_norm expects NCHW input, got shape {xd.shape}")
    c = xd.shape[1]
    for name, arr in (("gamma", gt.data), ("beta", bt.data),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise DimensionError(f"{name} must have shape ({c},), got {arr.shape}")
    if update_stats is None:
        update_stats = training
    need_gx, need_gg, need_gb = _needs_grad(xt), _needs_grad(gt), _needs_grad(bt)

    if training:
        mean = xd.mean(axis=(0, 2, 3))
        xhat = xd - mean[None, :, None, None]
        var = np.square(xhat).mean(axis=(0, 2, 3))
        if update_stats:
            running_mean *= DTYPE(1.0 - BN_MOMENTUM)
            running_mean += DTYPE(BN_MOMENTUM) * mean
            running_var *= DTYPE(1.0 - BN_MOMENTUM)
            running_var += DTYPE(BN_MOMENTUM) * var
        invstd = 1.0 / np.sqrt(var + DTYPE(BN_EPS))
        xhat *= invstd[None, :, None, None]
        out = gt.data[None, :, None, None] * xhat
        out += bt.data[None, :, None, None]
    else:
        invstd = 1.0 / np.sqrt(running_var + DTYPE(BN_EPS))
        scale = gt.data * invstd
        recorded = _recording((xt, gt, bt))
        out = _affine(xd, scale, bt.data - running_mean * scale, flush=not recorded)
        if not recorded:
            return Tensor(out)
        xhat = None
        if need_gg:
            xhat = xd - running_mean[None, :, None, None]
            xhat *= invstd[None, :, None, None]
    batch_grads = need_gx and training  # dx in train mode reads dgamma and dbeta

    def bw(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3)) if need_gg or batch_grads else None
        dbeta = g.sum(axis=(0, 2, 3)) if need_gb or batch_grads else None
        dx = None
        if need_gx:
            scale = gt.data * invstd
            if training:
                cnt = g.size // c
                dx = cnt * g
                dx -= dbeta[None, :, None, None]
                dx -= xhat * dgamma[None, :, None, None]
                dx *= (scale / cnt)[None, :, None, None]
            else:
                dx = g * scale[None, :, None, None]
        return dx, dgamma if need_gg else None, dbeta if need_gb else None

    return _record((xt, gt, bt), out, bw)


def cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of row logits against integer labels."""
    lt = as_tensor(logits)
    ld = lt.data
    if ld.ndim != 2:
        raise DimensionError(f"cross_entropy expects (N, C) logits, got shape {ld.shape}")
    lab = np.asarray(labels)
    n, c = ld.shape
    if lab.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {lab.shape}")
    if lab.min() < 0 or lab.max() >= c:
        raise ParameterError(f"labels must lie in [0, {c}), got range "
                             f"[{int(lab.min())}, {int(lab.max())}]")
    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = np.asarray(-logp[np.arange(n), lab].mean(), dtype=DTYPE)

    def bw(g):
        p = np.exp(logp)
        p[np.arange(n), lab] -= 1.0
        return (g * p / n,)

    return _record((lt,), out, bw)
