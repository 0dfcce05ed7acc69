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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..errors import ContractError, DimensionError, ParameterError

DTYPE = np.float32


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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routes through the recorded primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return mul(self, 1.0 / float(scalar))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

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
    """One recorded primitive application."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
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

    Repeated calls add into existing ``.grad`` buffers; call
    ``zero_grad`` (or an optimizer's) between steps.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=DTYPE)}
    for node in reversed(trace(loss)):
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for t, g in zip(node.inputs, gins):
            if g is None:
                continue
            g = np.asarray(g, dtype=DTYPE)
            if t.node is not None:
                acc = grads.get(id(t))
                grads[id(t)] = g if acc is None else acc + g
            elif t.requires_grad:
                t.grad = g.copy() if t.grad is None else t.grad + g


def _needs_grad(t: Tensor) -> bool:
    """True when gradient flowing into ``t`` reaches a requires_grad leaf."""
    return t.requires_grad or t.node is not None


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _STATE.grad_enabled and any(_needs_grad(t) for t in inputs):
        out.requires_grad = True
        out.node = TapeNode(op, inputs, out, backward_fn)
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

    return _record("add", (at, bt), out, bw)


def sub(a, b) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    out = at.data - bt.data

    def bw(g):
        return _unbroadcast(g, at.data.shape), _unbroadcast(-g, bt.data.shape)

    return _record("sub", (at, bt), out, bw)


def mul(a, b) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    out = at.data * bt.data

    def bw(g):
        return (_unbroadcast(g * bt.data, at.data.shape),
                _unbroadcast(g * at.data, bt.data.shape))

    return _record("mul", (at, bt), out, bw)


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

    return _record("matmul", (at, bt), out, bw)


def reshape(t, shape) -> Tensor:
    tt = as_tensor(t)
    out = tt.data.reshape(shape)

    def bw(g):
        return (g.reshape(tt.data.shape),)

    return _record("reshape", (tt,), out, bw)


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

    return _record("index_select", (tt,), out, bw)


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

    return _record("sum", (tt,), out, bw)


def tensor_mean(t, axis=None, keepdims: bool = False) -> Tensor:
    tt = as_tensor(t)
    axes = _reduction_axes(axis, tt.data.ndim)
    count = int(np.prod([tt.data.shape[a] for a in axes])) if axes else 1
    out = tt.data.mean(axis=axes if axes else None, keepdims=keepdims)

    def bw(g):
        spread = _spread(g, tt.data.shape, axes, keepdims)
        return ((spread / count).astype(DTYPE, copy=False),)

    return _record("mean", (tt,), out, bw)


def relu6(t) -> Tensor:
    """Clamp to [0, 6]; subgradient 0 at both kinks."""
    tt = as_tensor(t)
    xd = tt.data
    out = np.clip(xd, 0.0, 6.0)

    def bw(g):
        return (g * ((xd > 0.0) & (xd < 6.0)),)

    return _record("relu6", (tt,), out, bw)


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

    return _record("softmax", (tt,), y, bw)


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


# Byte budget for one row block's input rows in the depthwise tap loop:
# all k^2 taps sweep the block, so it should stay in a core's L2.
_DW_BLOCK_BYTES = 1 << 19


def _dw_row_step(n: int, wp: int, c: int, stride: int) -> int:
    """Output rows per block, from the size of one padded input row."""
    return max(1, _DW_BLOCK_BYTES // (stride * n * wp * c * np.dtype(DTYPE).itemsize))


def _conv_depthwise(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int,
                    need_gx: bool, need_gw: bool):
    """Depthwise conv as k^2 shifted multiply-accumulates over blocks of rows.

    Works channels-last, so a tap's inner loop runs over a whole output
    row of all channels rather than over one short row of one plane.
    """
    n, c, h, w = xd.shape
    k = wd.shape[-1]
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE)
    xp[:, padding:padding + h, padding:padding + w] = xd.transpose(0, 2, 3, 1)
    wt = np.ascontiguousarray(wd.reshape(c, k * k).T)
    step = _dw_row_step(n, xp.shape[2], c, stride)
    blocks = []  # (output rows, the input rows they read, the taps over those)
    for r0 in range(0, oh, step):
        r1 = min(oh, r0 + step)
        blocks.append((slice(r0, r1), slice(stride * r0, stride * (r1 - 1) + k),
                       _taps(k, stride, r1 - r0, ow)))
    out = np.empty((n, oh, ow, c), dtype=DTYPE)
    for orows, irows, taps in blocks:
        acc, xb = out[:, orows], xp[:, irows]
        tmp = np.empty_like(acc)
        for t, rows, cs in taps:
            if t == 0:
                np.multiply(xb[:, rows, cs], wt[t], out=acc)
            else:
                np.multiply(xb[:, rows, cs], wt[t], out=tmp)
                acc += tmp
    if not need_gw:
        xp = None  # only the weight gradient reads the padded input

    def bw(gout):
        g = np.ascontiguousarray(gout.transpose(0, 2, 3, 1))
        gw = np.zeros((k * k, c), dtype=DTYPE) if need_gw else None
        gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE) \
            if need_gx else None
        for orows, irows, taps in blocks:
            gb = g[:, orows]
            tmp = np.empty_like(gb)
            for t, rows, cs in taps:
                if need_gw:
                    np.multiply(gb, xp[:, irows][:, rows, cs], out=tmp)
                    gw[t] += tmp.reshape(-1, c).sum(axis=0)
                if need_gx:
                    np.multiply(gb, wt[t], out=tmp)
                    gxp[:, irows][:, rows, cs] += tmp
        gx = None
        if need_gx:
            gx = np.ascontiguousarray(
                gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))
        return gx, None if gw is None else gw.T.reshape(wd.shape)

    return np.ascontiguousarray(out.transpose(0, 3, 1, 2)), bw


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

    Depthwise convs run as shifted multiply-accumulates and stride-1 1x1
    convs as one matmul; every other shape goes through im2col. The
    backward computes the input and weight gradients only for the
    operands that need one when the op is recorded.
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
        out, bw = _conv_depthwise(xd, wd, stride, padding, need_gx, need_gw)
    elif k == 1 and stride == 1 and padding == 0 and groups == 1:
        out, bw = _conv_pointwise(xd, wd, need_gx, need_gw)
    else:
        out, bw = _conv_im2col(xd, wd, stride, padding, groups, need_gx, need_gw)
    return _record("conv2d", (xt, wt), out, bw)


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5,
               update_stats: Optional[bool] = None) -> Tensor:
    """Per-channel batch normalization over an NCHW tensor.

    Train mode normalizes by batch statistics (biased variance) and, when
    ``update_stats`` (defaults to ``training``), folds them into the
    running buffers with the given momentum. Eval mode normalizes by the
    running buffers. The running buffers are plain arrays mutated in
    place; they carry no gradient.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
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

    if training:
        mean = xd.mean(axis=(0, 2, 3))
        xhat = xd - mean[None, :, None, None]
        var = np.square(xhat).mean(axis=(0, 2, 3))
        if update_stats:
            running_mean *= DTYPE(1.0 - momentum)
            running_mean += DTYPE(momentum) * mean
            running_var *= DTYPE(1.0 - momentum)
            running_var += DTYPE(momentum) * var
    else:
        mean, var = running_mean, running_var
        xhat = xd - mean[None, :, None, None]

    invstd = 1.0 / np.sqrt(var + DTYPE(eps))
    xhat *= invstd[None, :, None, None]
    out = gt.data[None, :, None, None] * xhat
    out += bt.data[None, :, None, None]
    need_gx, need_gg, need_gb = _needs_grad(xt), _needs_grad(gt), _needs_grad(bt)
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

    return _record("batch_norm", (xt, gt, bt), out, bw)


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

    return _record("cross_entropy", (lt,), out, bw)
