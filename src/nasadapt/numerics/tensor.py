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
from itertools import product
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
    """Instrument conv2d: yields a counter of each conv's configured multiply-adds.

    Counts ``N * k^2 * (C_in/groups) * C_out * H_out * W_out`` per
    convolution, the cost model's convention, whatever the kernel does:
    the Toeplitz kernels multiply more (zero entries of their matrices),
    and the tap loop fewer (it skips taps that are zero in every channel).
    Normalization, activations, and elementwise arithmetic are excluded.
    ``conv_calls`` counts ``conv2d`` calls: a conv chain that runs in bands
    of rows (``layers.ConvChain``) makes one per stage and band, whose
    multiply-adds add up to the whole plane's.
    """
    prev = _STATE.counter
    counter = MAddsCounter()
    _STATE.counter = counter
    try:
        yield counter
    finally:
        _STATE.counter = prev


class Tensor:
    """A float32 array plus optional gradient buffer and tape linkage. ``requires_grad``
    marks a leaf that takes a gradient, and every recorded output."""

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

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)

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


def _recording(inputs: Sequence[Tensor]) -> bool:
    """True when a primitive applied to ``inputs`` now is put on the tape."""
    return _STATE.grad_enabled and any(t.requires_grad for t in inputs)


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


def _spread(g, in_shape, axes):
    return np.broadcast_to(np.expand_dims(g, axes) if axes else g, in_shape)


def tensor_sum(t, axis=None) -> Tensor:
    tt = as_tensor(t)
    axes = _reduction_axes(axis, tt.data.ndim)
    out = tt.data.sum(axis=axes if axes else None)

    def bw(g):
        return (_spread(g, tt.data.shape, axes).astype(DTYPE, copy=False),)

    return _record((tt,), out, bw)


def tensor_mean(t, axis=None) -> Tensor:
    tt = as_tensor(t)
    axes = _reduction_axes(axis, tt.data.ndim)
    count = int(np.prod([tt.data.shape[a] for a in axes])) if axes else 1
    out = tt.data.mean(axis=axes if axes else None)

    def bw(g):
        spread = _spread(g, tt.data.shape, axes)
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


_relu6 = relu6  # batch_norm's keyword of the same name hides it there


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
# at most this many entries per sample and kernel tap runs as batched
# matmuls. On a 2-core Xeon with one OpenBLAS thread, over a grid of n 1-32,
# c 8-72, planes 2x2-24x24, k 3-7 and stride 1-2, this line picked the
# faster of the whole-plane matmul and the tap loop for 424 of 432 shapes,
# and no miss cost more than 1.6x.
_TOEPLITZ_ENTRIES = 8192
# Of those, planes of at least _BAND_MIN_ROWS rows run in blocks of
# _BAND_ROWS output rows. Forward plus backward against the whole plane,
# on the same machine: 16x16 planes 2.9-3.9x faster at stride 1 and
# 1.4-1.5x at stride 2; desk3's 8x8 planes no faster in sum; smaller ones
# 1.8-2.6x slower. One-row blocks were within 15% of two-row ones either
# way; three or four rows were slower on every 16x16 plane.
_BAND_MIN_ROWS = 16
_BAND_ROWS = 2


# ufunc buffer size, in entries, for the tap loop and the eval affine. At
# numpy's default of 8192, a per-channel value broadcast over rows of up to
# half that many entries goes through the ufunc buffers: (20, 3000) float32
# entries times a (20, 1) weight took 0.77 ns per entry, against 0.21 ns at
# 1024, and verify's two table1 eval forwards at 800x1088 6.2 s against
# 5.9 s (2-core VM, one BLAS thread). Neither loop casts, so the buffer
# size changes how numpy groups the rows, never a result.
_UFUNC_BUFSIZE = 1024


@contextmanager
def _small_ufunc_buffers():
    """Run ufuncs with _UFUNC_BUFSIZE-entry buffers; numpy keeps the
    setting per thread and context, so no other caller sees it."""
    prev = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(prev)


def _dw_kernel(n: int, c: int, h: int, w: int, k: int, stride: int, padding: int,
               recorded: bool) -> str:
    """The depthwise kernel for a shape, and for whether the conv is put on
    the tape: "band", "toeplitz" or "taps".

    The Toeplitz matmul of whole planes does h*w/k^2 times the tap loop's
    multiply-adds, but in BLAS rather than in 2-3 array passes per tap,
    so it wins on small planes and loses as the operator grows. On the
    larger of those planes, blocks of _BAND_ROWS output rows ("band")
    cut that to (stride*(_BAND_ROWS-1) + k)*w/k^2 times, for the price of
    copying the planes into row blocks. The tap loop has no backward, so a
    recorded conv past the Toeplitz budget runs the band.
    """
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    if c * oh * ow * h * w <= _TOEPLITZ_ENTRIES * n * k * k:
        return "band" if h >= _BAND_MIN_ROWS else "toeplitz"
    return "band" if recorded else "taps"


def _phase_lines(size: int, padding: int, stride: int, phase: int, start: int,
                 length: int) -> tuple[slice, slice]:
    """Of the ``length`` lines of a phase plane from line ``start`` on, the
    ones that hold input, counted from ``start``, and the input lines they
    hold: phase line i is padded line ``stride*i + phase``, input line
    ``stride*i + phase - padding``."""
    lo = max(start, -((phase - padding) // stride))  # the first line past the top padding
    count = max(0, min(start + length, -((phase - padding - size) // stride)) - lo)
    first = stride * lo + phase - padding
    return slice(lo - start, lo - start + count), slice(first, first + stride * count, stride)


@_small_ufunc_buffers()
def _conv_depthwise(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Depthwise conv as k^2 shifted multiply-accumulates over flat phase planes.

    The padded input splits into stride x stride phase planes, phase (a, b)
    holding the padded rows a, a+stride, ... and columns b, b+stride, ....
    Each is one flat run of rows of ``ws = ow + (k-1)//stride`` columns.
    Tap (ki, kj) reads phase (ki % stride, kj % stride) from offset
    ``(ki//stride)*ws + kj//stride`` on: one contiguous run per plane,
    whose first ``ow`` columns per row are output. A block is as many
    whole planes as fit the byte budget, or a band of rows of one plane.
    Each block copies the phase rows its taps read, its own rows plus
    ``(k-1)//stride + 1`` below them for the taps' reach and the last
    run's overhang, from the input into a zeroed buffer of its own, so no
    padded copy of the whole input exists. A tap whose weight is zero in
    every channel is skipped, unless the block reads a NaN or an inf; a
    block with no tap left writes +0.0. That can change only the sign of
    an exact-zero output. Forward only: no conv that is put on the tape
    runs it.
    """
    n, c, h, w = xd.shape
    k, s = wd.shape[-1], stride
    oh, ow = _out_size(h, k, s, padding), _out_size(w, k, s, padding)
    reach = (k - 1) // s
    ws = ow + reach
    cols = [_phase_lines(w, padding, s, b, 0, ws) for b in range(s)]
    wt = np.ascontiguousarray(wd.reshape(c, k * k).T)[:, :, None]
    taps = [(t, (ki % s) * s + kj % s, (ki // s) * ws + kj // s)
            for t, (ki, kj) in enumerate(np.ndindex(k, k))]
    live = [tap for tap in taps if wt[tap[0]].any()]
    row = s * s * n * ws * np.dtype(DTYPE).itemsize  # one plane's input per output row
    planes = max(1, min(c, _DW_BLOCK_BYTES // (row * oh)))
    rows = max(1, min(oh, _DW_BLOCK_BYTES // (row * planes)))
    out = np.empty((n, c, oh, ow), dtype=DTYPE)
    for c0, r0 in product(range(0, c, planes), range(0, oh, rows)):
        chans, r1 = slice(c0, min(c, c0 + planes)), min(oh, r0 + rows)
        m, lines, span = chans.stop - c0, r1 - r0 + reach + 1, (r1 - r0) * ws
        phases = np.zeros((n, m, s, s, lines, ws), dtype=DTYPE)
        for a, b in np.ndindex(s, s):
            (prows, xrows), (pcols, xcols) = _phase_lines(h, padding, s, a, r0, lines), cols[b]
            phases[:, :, a, b, prows, pcols] = xd[:, chans, xrows, xcols]
        phases = phases.reshape(n, m, s * s, lines * ws)
        acc, tmp = np.empty((2, n, m, span), dtype=DTYPE)
        run = live if len(live) == len(taps) or np.isfinite(phases).all() else taps
        if not run:
            acc.fill(0)
        for i, (t, phase, offset) in enumerate(run):
            np.multiply(phases[:, :, phase, offset:offset + span], wt[t, chans],
                        out=tmp if i else acc)
            if i:
                acc += tmp
        out[:, chans, r0:r1] = acc.reshape(n, m, r1 - r0, ws)[..., :ow]
        del phases, acc, tmp  # before the next block allocates its own
    return out


@lru_cache(maxsize=64)
def _toeplitz_index(h: int, w: int, k: int, stride: int, padding: int, rows: int):
    """Where each tap sits in one block's Toeplitz matrix, and the block geometry.

    A block of ``rows`` output rows (all ``oh`` of them when ``rows >=
    oh``) reads a slab of input rows. One block reads the unpadded planes,
    ``h`` rows; several read slabs of ``stride*(rows-1) + k`` rows of
    planes padded above by ``padding`` rows, and block b starts
    ``stride*rows`` rows below block b-1. Returns ``(index, blocks, top,
    pieces, span)``: entry ``[l, t]`` of ``index`` is the flat index of
    tap t's weight in row l of the block's (rows*ow, slab*w + 1) matrix;
    ``top`` is the row padding above the planes; ``pieces`` cut a slab's
    slab*w entries into the ``stride*rows*w`` that each block advances by;
    ``span`` is the number of such steps the padded planes hold. A tap
    that falls in the padding points at the row's last column, which
    stands for the padding and is never read as input.
    """
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    rows = min(rows, oh)
    blocks = -(-oh // rows)
    top, slab = (0, h) if blocks == 1 else (padding, stride * (rows - 1) + k)
    iy = (np.arange(rows) * stride + top - padding)[:, None, None, None] + np.arange(k)[:, None]
    ix = (np.arange(ow) * stride - padding)[None, :, None, None] + np.arange(k)
    inside = (iy >= 0) & (iy < slab) & (ix >= 0) & (ix < w)
    width, step = slab * w, stride * rows * w
    starts = np.arange(rows * ow).reshape(rows, ow, 1, 1) * (width + 1)
    index = (starts + np.where(inside, iy * w + ix, width)).reshape(rows * ow, k * k)
    index.flags.writeable = False
    pieces = tuple(slice(p0, min(width, p0 + step)) for p0 in range(0, width, step))
    span = max(blocks - 1 + len(pieces), -(-(top + h) // (stride * rows)))
    return index, blocks, top, pieces, span


def _conv_toeplitz(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int, rows: int,
                   need_gx: bool, need_gw: bool):
    """Depthwise conv as batched matmuls with Toeplitz matrices of row blocks.

    Each block of ``rows`` output rows of channel c is one linear map
    ``T_c`` of shape (rows*ow, slab*w) of the input rows the block reads,
    holding the channel's k^2 taps with zeros where a tap falls in the
    padding; every block of a channel has the same ``T_c``. The forward
    is ``T x``, the input gradient ``T^T g``, and the weight gradient sums
    each tap's entries of ``g x^T``.

    With ``rows >= oh`` there is one block, whose slab is the whole plane:
    the matmuls read and write the NCHW arrays in place. With several
    blocks, the row-padded planes are laid out (c, row block, n, stride *
    rows * w), so piece j of every block's slab is one contiguous view,
    row blocks j, j+1, ...: each product is a sum over the pieces, and the
    input gradient adds each piece's product back at its row blocks.
    ``T`` and the padded planes are rebuilt in the backward rather than
    kept alive.
    """
    n, c, h, w = xd.shape
    k = wd.shape[-1]
    oh, ow = _out_size(h, k, stride, padding), _out_size(w, k, stride, padding)
    index, blocks, top, pieces, span = _toeplitz_index(h, w, k, stride, padding, rows)
    m, width = index.shape[0], pieces[-1].stop
    rows = m // ow
    step = stride * rows * w  # the input entries one block advances by

    def toeplitz():
        # one extra column takes the taps that fall in the padding
        tp = np.zeros((c, m, width + 1), dtype=DTYPE)
        tp.reshape(c, m * (width + 1))[:, index] = wd.reshape(c, 1, k * k)
        return tp[:, :, :width]

    def slab_pieces():
        """Piece j of every block's slab, a (c, blocks*n, piece) view, for each j."""
        xp = np.zeros((n, c, span * stride * rows, w), dtype=DTYPE)
        xp[:, :, top:top + h] = xd
        xr = np.ascontiguousarray(xp.reshape(n, c, span, step).transpose(1, 2, 0, 3))
        return [xr[:, j:j + blocks, :, :piece.stop - piece.start].reshape(c, blocks * n, -1)
                for j, piece in enumerate(pieces)]

    x3 = xd.reshape(n, c, h * w).transpose(1, 0, 2)  # a (c, n, plane) view, for one block
    out = np.empty((n, c, blocks * rows, ow), dtype=DTYPE)
    if blocks == 1:
        out.reshape(n, c, m).transpose(1, 2, 0)[...] = np.matmul(toeplitz(),
                                                                x3.transpose(0, 2, 1))
    else:
        tp, xs = toeplitz(), slab_pieces()
        res = np.matmul(xs[0], tp[:, :, pieces[0]].transpose(0, 2, 1))
        for piece, xj in zip(pieces[1:], xs[1:]):
            res += np.matmul(xj, tp[:, :, piece].transpose(0, 2, 1))
        out.reshape(n, c, blocks, m).transpose(1, 2, 0, 3)[...] = res.reshape(c, blocks, n, m)
        out = np.ascontiguousarray(out[:, :, :oh])  # copies only when the last block is cut short

    def bw(gout):
        gx = gw = None
        if blocks == 1:
            g3 = gout.reshape(n, c, m).transpose(1, 0, 2)
        else:
            gpad = np.zeros((n, c, blocks * rows, ow), dtype=DTYPE)
            gpad[:, :, :oh] = gout
            g3 = np.ascontiguousarray(gpad.reshape(n, c, blocks, m).transpose(1, 2, 0, 3)) \
                .reshape(c, blocks * n, m)
        if need_gx and blocks == 1:
            gx = np.empty((n, c, h, w), dtype=DTYPE)
            np.matmul(g3, toeplitz(), out=gx.reshape(n, c, width).transpose(1, 0, 2))
        elif need_gx:
            tp = toeplitz()
            gxr = np.zeros((c, span, n, step), dtype=DTYPE)
            for j, piece in enumerate(pieces):
                gxr[:, j:j + blocks, :, :piece.stop - piece.start] += \
                    np.matmul(g3, tp[:, :, piece]).reshape(c, blocks, n, -1)
            gx = np.ascontiguousarray(gxr.transpose(2, 0, 1, 3)
                                      .reshape(n, c, -1, w)[:, :, top:top + h])
        if need_gw:
            gtp = np.empty((c, m, width + 1), dtype=DTYPE)
            gtp[:, :, width] = 0  # the taps that fall in the padding gather zeros
            if blocks == 1:
                np.matmul(g3.transpose(0, 2, 1), x3, out=gtp[:, :, :width])
            else:
                for piece, xj in zip(pieces, slab_pieces()):
                    np.matmul(g3.transpose(0, 2, 1), xj, out=gtp[:, :, piece])
            gw = np.take(gtp.reshape(c, m * (width + 1)), index, axis=1).sum(axis=1) \
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

    Depthwise convs run the kernel :func:`_dw_kernel` picks from the shape
    and from whether the conv is recorded: a batched matmul with each
    channel's Toeplitz matrix, of whole planes or of blocks of two output
    rows, or, unrecorded on large planes, a forward-only tap loop.
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

    need_gx, need_gw = xt.requires_grad, wt.requires_grad
    if groups == c_in == c_out:
        kernel = _dw_kernel(n, c_in, h, w, k, stride, padding, _recording((xt, wt)))
        if kernel == "taps":  # never recorded, so it needs no backward
            out, bw = _conv_depthwise(xd, wd, stride, padding), None
        else:
            out, bw = _conv_toeplitz(xd, wd, stride, padding,
                                     _BAND_ROWS if kernel == "band" else oh, need_gx, need_gw)
    elif k == 1 and stride == 1 and padding == 0 and groups == 1:
        out, bw = _conv_pointwise(xd, wd, need_gx, need_gw)
    else:
        out, bw = _conv_im2col(xd, wd, stride, padding, groups, need_gx, need_gw)
    return _record((xt, wt), out, bw)


# Eval results below sqrt(finfo.tiny) = 2**-63 flush to +0.0, so their products with weights
# of at least that are normal: arithmetic on a subnormal runs in microcode, up to a hundred
# times slower, and numpy offers no flush-to-zero mode.
_FLUSH_FLOOR = np.sqrt(np.finfo(DTYPE).tiny)
# Byte budget for one block of whole channels in the eval affine: the
# flush then reads the block back from cache. On a 2-core Xeon VM, one block per
# call was 1.04x to 1.69x slower than 256 KB blocks on seven eval shapes, such
# as (1,96,40,544) into a padded window and (1,32,400,544).
_AFFINE_BLOCK_BYTES = 1 << 18


@_small_ufunc_buffers()
def _affine(xd: np.ndarray, scale: np.ndarray, shift: np.ndarray, clip: bool,
            out: np.ndarray) -> np.ndarray:
    """``xd * scale + shift`` per channel of an NCHW array, into ``out``, which
    may be ``xd`` itself, flushed: every result with ``|y| < sqrt(finfo(float32).tiny)``
    becomes +0.0 and every other result keeps its bits. With ``clip``, each
    block of channels is then clipped as :func:`relu6` clips. Flush, then
    clip: clipping first gives the same bits, but the flush's copy mask is
    then dense and the pass about 2x slower.
    """
    n, c, h, w = xd.shape
    step = max(1, _AFFINE_BLOCK_BYTES // (n * h * w * np.dtype(DTYPE).itemsize))
    for c0 in range(0, c, step):
        chans = slice(c0, c0 + step)
        y = out[:, chans]
        np.multiply(xd[:, chans], scale[chans, None, None], out=y)
        y += shift[chans, None, None]
        np.copyto(y, 0, where=np.abs(y) < _FLUSH_FLOOR)
        if clip:
            np.clip(y, 0.0, 6.0, out=y)
    return out


def _channel_sums(rows: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of an (n, c*h*w) array: over the batch, then over each plane."""
    return np.add.reduce(np.add.reduce(rows, axis=0).reshape(c, -1), axis=1)


def _train_batch_norm(xt: Tensor, gt: Tensor, bt: Tensor, running_mean: np.ndarray,
                      running_var: np.ndarray, update_stats: bool, clip: bool) -> Tensor:
    """Train-mode batch norm on the (n, c*h*w) rows of an NCHW input.

    Each per-channel vector is applied as one row of c*h*w entries, the
    vector repeated over each plane. ``xc = x - mean`` is kept for the
    backward: ``dgamma = sum(g*xc) * invstd``, and ``dx = s*g - s*dbeta/cnt
    - xc * s*invstd*dgamma/cnt`` with ``s = gamma*invstd`` over the ``cnt``
    entries of a channel. With ``clip``, the output is clipped in place as
    :func:`relu6` clips, and the backward first masks ``g`` as relu6's
    backward does, reading the mask off the clipped output.
    """
    xd = xt.data
    n, c, h, w = xd.shape
    hw, cnt = h * w, DTYPE(n * h * w)
    need_gx, need_gg, need_gb = xt.requires_grad, gt.requires_grad, bt.requires_grad
    mean = _channel_sums(xd.reshape(n, c * hw), c) / cnt
    xc = xd.reshape(n, c * hw) - mean.repeat(hw)
    out = np.square(xc)
    var = _channel_sums(out, c) / cnt
    if update_stats:
        running_mean *= DTYPE(1.0 - BN_MOMENTUM)
        running_mean += DTYPE(BN_MOMENTUM) * mean
        running_var *= DTYPE(1.0 - BN_MOMENTUM)
        running_var += DTYPE(BN_MOMENTUM) * var
    invstd = 1.0 / np.sqrt(var + DTYPE(BN_EPS))
    scale = gt.data * invstd
    np.multiply(xc, scale.repeat(hw), out=out)
    out += bt.data.repeat(hw)
    if clip:
        np.clip(out, 0.0, 6.0, out=out)
    if not (need_gx or need_gg):
        xc = None  # only dgamma and dx read it

    def bw(g):
        g2 = g.reshape(n, c * hw)
        if clip:  # relu6's mask: the same off the clipped output as off the unclipped
            g2 = g2 * ((out > 0.0) & (out < 6.0))
        dgamma = dbeta = dx = None
        if need_gb or need_gx:
            dbeta = _channel_sums(g2, c)
        if need_gg or need_gx:
            gxc = g2 * xc
            dgamma = _channel_sums(gxc, c) * invstd
        if need_gx:
            a = scale / cnt
            dx = g2 * scale.repeat(hw)
            dx -= (a * dbeta).repeat(hw)
            np.multiply(xc, (a * invstd * dgamma).repeat(hw), out=gxc)
            dx -= gxc
            dx = dx.reshape(n, c, h, w)
        return dx, dgamma if need_gg else None, dbeta if need_gb else None

    return _record((xt, gt, bt), out.reshape(n, c, h, w), bw)


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, update_stats: Optional[bool] = None, *, relu6: bool = False,
               out: Optional[np.ndarray] = None) -> Tensor:
    """Per-channel batch normalization over an NCHW tensor; with ``relu6``,
    followed by :func:`relu6` in the same call, bit for bit, gradients too.

    Train mode normalizes by batch statistics (biased, two-pass variance)
    and, when ``update_stats`` (defaults to ``training``), folds them into
    the running buffers with momentum ``BN_MOMENTUM``; it works on the
    (n, c*h*w) rows of the input and takes every per-channel sum over the
    batch first, then over the plane (:func:`_train_batch_norm`), and is
    one tape node, its clip included. Eval mode is one per-channel affine
    ``x * s + t`` with ``s = gamma * invstd``, ``invstd = 1 /
    sqrt(running_var + BN_EPS)``, and ``t = beta + s * -running_mean``.
    Unrecorded, it is :func:`_affine`: the affine, a flush that turns
    every result below sqrt(tiny) into 0, then the clip, in one pass per block of
    channels. Recorded, it is composed of recorded primitives, which
    differentiate it, then :func:`relu6`, and is not flushed. The running
    buffers are plain arrays mutated in place; they carry no gradient.

    ``out`` is for a caller whose input has no other reader, such as a
    conv output: the unrecorded eval path writes its result into it, and
    it may be the input's own data. Every other path ignores it and
    returns a fresh array; without it, no path writes the input.
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
    if training:
        return _train_batch_norm(xt, gt, bt, running_mean, running_var,
                                 True if update_stats is None else update_stats, relu6)

    invstd = 1.0 / np.sqrt(running_var + DTYPE(BN_EPS))
    if not _recording((xt, gt, bt)):
        scale = gt.data * invstd
        return Tensor(_affine(xd, scale, bt.data - running_mean * scale, relu6,
                              np.empty(xd.shape, dtype=DTYPE) if out is None else out))
    scale = gt * Tensor(invstd)
    shift = bt + scale * Tensor(-running_mean)
    y = xt * reshape(scale, (1, c, 1, 1)) + reshape(shift, (1, c, 1, 1))
    return _relu6(y) if relu6 else y


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
