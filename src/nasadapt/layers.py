"""Network building blocks shared by the supernet and derived networks.

Every network is a chain of conv stages, each stating its own geometry
(:class:`ConvStage`): a bias-free square-kernel convolution with
shape-preserving padding, then batch normalization. This module states,
once, the stage list of an inverted-residual operation (MBConv: a 1x1
``expand`` to ``expansion * c_in`` channels, omitted at expansion 1, a kxk
``depthwise`` carrying the stride, a 1x1 ``project``) and of the stem (a
strided 3x3 ``conv``, then a k3/e1 MBConv). :class:`ConvChain` runs a stage
list with relu6 after every stage but the last, as the epilogue of that
stage's batch norm; the parameter mapper and the cost model read the same
lists.
Every module takes its tensors from a :class:`TensorSource` and names
each one where it creates it.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ParameterError
from .numerics import Tensor, batch_norm, conv2d, no_grad
# not called here: perfbench/instrument.py patches this name (until ROADMAP item 2)
from .numerics import relu6  # noqa: F401
from .numerics.tensor import DTYPE, _dw_kernel
from .searchspace import StemSpec


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) truncated to two standard deviations by resampling."""
    std = 0.02
    out = rng.standard_normal(shape) * std
    for _ in range(8):
        mask = np.abs(out) > 2 * std
        if not mask.any():
            break
        out[mask] = rng.standard_normal(int(mask.sum())) * std
    return np.clip(out, -2 * std, 2 * std).astype(DTYPE)


def ones(rng: np.random.Generator, shape) -> np.ndarray:
    return np.ones(shape, dtype=DTYPE)


def zeros(rng: np.random.Generator, shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


class TensorSource:
    """Hands modules their tensors and records each one by name.

    From a seed, each tensor is its init (``trunc_normal``, ``ones`` or
    ``zeros``), drawn from one PCG64 generator in creation order. From
    arrays, each tensor is a float32 copy of the array of its name, and
    nothing is drawn; a built network keeps its source closed
    (:meth:`close`), not the arrays. ``params`` and ``state`` map names to
    the trainable tensors and the running statistics, in creation order.
    """

    def __init__(self, seed: int | None = None,
                 arrays: Mapping[str, np.ndarray] | None = None):
        if (seed is None) == (arrays is None):
            raise ParameterError("a tensor source takes exactly one of a seed and arrays")
        self._rng = None if seed is None else np.random.Generator(np.random.PCG64(seed))
        self._arrays = arrays
        self._prefix = ""
        self.params: dict[str, Tensor] = {}
        self.state: dict[str, np.ndarray] = {}

    def scope(self, name: str) -> "TensorSource":
        """The same source and record, with ``name/`` prefixed to every name."""
        child = copy.copy(self)
        child._prefix = f"{self._prefix}{name}/"
        return child

    def read(self, name: str, shape: tuple) -> np.ndarray:
        """The array of ``name``, not copied, once checked to have ``shape``."""
        name = self._prefix + name
        if name not in self._arrays:
            raise ContractError(f"missing tensor '{name}'")
        if self._arrays[name].shape != shape:
            raise ContractError(f"tensor '{name}' has shape {self._arrays[name].shape}, "
                                f"the network expects {shape}")
        return self._arrays[name]

    def _take(self, name: str, shape: tuple, init) -> tuple[str, np.ndarray]:
        if self._arrays is None:
            return self._prefix + name, init(self._rng, shape)
        return self._prefix + name, np.array(self.read(name, shape), dtype=DTYPE, order="C")

    def param(self, name: str, shape: tuple, init) -> Tensor:
        name, data = self._take(name, shape, init)
        tensor = self.params[name] = Tensor(data, requires_grad=True)
        return tensor

    def buffer(self, name: str, shape: tuple, init) -> np.ndarray:
        name, data = self._take(name, shape, init)
        self.state[name] = data
        return data

    def close(self) -> "TensorSource":
        """Forget the arrays the tensors were copied from, so that what was
        built from them does not keep them alive; later takes find no
        tensor. Returns this source, its record intact."""
        if self._arrays is not None:
            self._arrays = {}
        return self

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded tensor's array: parameters, then running statistics."""
        return {name: t.data for name, t in self.params.items()} | self.state


def out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    """The output plane of a conv stage (odd kernel) on an h x w input."""
    return (h - 1) // stride + 1, (w - 1) // stride + 1


@dataclass(frozen=True)
class ConvStage:
    """One conv + batch norm; its tensors live under ``name/``."""

    name: str
    c_in: int
    c_out: int
    kernel: int
    stride: int = 1
    groups: int = 1

    @property
    def padding(self) -> int:
        return (self.kernel - 1) // 2

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.c_out, self.c_in // self.groups, self.kernel, self.kernel)


def mbconv_stages(c_in: int, c_out: int, kernel: int, expansion: int,
                  stride: int) -> tuple[ConvStage, ...]:
    """Stage list of one inverted-residual operation."""
    hidden = expansion * c_in
    expand = (ConvStage("expand", c_in, hidden, 1),) if expansion != 1 else ()
    return expand + (ConvStage("depthwise", hidden, hidden, kernel, stride, groups=hidden),
                     ConvStage("project", hidden, c_out, 1))


def stem_stages(stem: StemSpec) -> tuple[ConvStage, ...]:
    """Stage list of the fixed entry: a strided 3x3 conv, then a k3/e1 MBConv."""
    mbconv = mbconv_stages(stem.conv_channels, stem.mbconv_channels, kernel=3,
                           expansion=1, stride=1)
    return (ConvStage("conv", 3, stem.conv_channels, 3, stride=2),
            *(replace(s, name=f"mbconv/{s.name}") for s in mbconv))


class ConvChain:
    """Runs a stage list: conv then batch norm per stage, the batch norm of
    every stage but the last followed by relu6 in the same call, its
    epilogue; an empty list is the identity (a skip). An eval forward runs
    under ``no_grad``: each epilogue writes over its conv's output, which
    nothing else reads, and a chain over :data:`BAND_BYTES` runs in bands
    of rows (:meth:`_bands`). ``weight`` maps each stage's name to its conv
    weight, and ``bn`` to its batch norm's gamma, beta, running mean and
    running variance. Bands cover one stage, then a depthwise stage whose
    kernel is at least its stride, then stride-1 1x1 stages (an MBConv
    with an expand, or the stem); ``_plan`` holds those first two stages."""

    def __init__(self, stages: tuple[ConvStage, ...], source: TensorSource):
        self.stages = stages
        self.weight: dict[str, Tensor] = {}
        self.bn: dict[str, tuple[Tensor, Tensor, np.ndarray, np.ndarray]] = {}
        for s in stages:
            scoped = source.scope(s.name)
            self.weight[s.name] = scoped.param("weight", s.weight_shape, trunc_normal)
            bn = scoped.scope("bn")
            self.bn[s.name] = (bn.param("gamma", (s.c_out,), ones),
                               bn.param("beta", (s.c_out,), zeros),
                               bn.buffer("mean", (s.c_out,), zeros),
                               bn.buffer("var", (s.c_out,), ones))
        self._plan = stages[:2] if len(stages) >= 2 and stages[0].groups == 1 and \
            stages[1].groups > 1 and stages[1].kernel >= stages[1].stride and \
            all(s.kernel == 1 and s.stride == 1 for s in stages[2:]) else None

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        with nullcontext() if training else no_grad():
            bands = 1 if training else self._bands(x)
            if bands > 1:
                return self._banded(x.data, bands)
            h, last = x, len(self.stages) - 1
            for n, s in enumerate(self.stages):
                h = conv2d(h, self.weight[s.name], stride=s.stride, padding=s.padding,
                           groups=s.groups)
                # the conv output has no other reader: an eval batch norm
                # may write its result over it
                h = batch_norm(h, *self.bn[s.name], training=training,
                               update_stats=update_stats, relu6=n < last, out=h.data)
            return h

    def _bands(self, x: Tensor) -> int:
        """How many bands of depthwise output rows an eval forward of ``x``
        runs in; 1 is the whole plane. A forward whose depthwise conv runs
        the tap loop on the whole plane (``_dw_kernel``) takes bands of as
        many rows as keep every stage's output within :data:`BAND_BYTES`,
        but at least enough that each conv's matmul exceeds
        :data:`_SMALL_GEMM_MADDS`, if its plane holds two such bands."""
        if self._plan is None:
            return 1
        pre, dw = self._plan
        n = x.shape[0]
        h, w = out_hw(*x.shape[2:], pre.stride)
        oh, ow = out_hw(h, w, dw.stride)
        if _dw_kernel(n, dw.c_in, h, w, dw.kernel, dw.stride, dw.padding, False) != "taps":
            return 1
        # per band row: each stage's output bytes, and each matmul's
        # multiply-adds per sample, which a band of r rows takes r times (the
        # stage before the depthwise one makes at least stride*r - pad rows)
        item = np.dtype(DTYPE).itemsize
        row_bytes = [n * s.c_out * ow * item for s in self.stages[1:]]
        row_bytes.append(n * pre.c_out * w * dw.stride * item)
        need = [_SMALL_GEMM_MADDS // (ow * s.c_out * s.c_in) + 1 for s in self.stages[2:]]
        made = _SMALL_GEMM_MADDS // (w * pre.c_out * pre.c_in * pre.kernel ** 2) + 1
        need.append(-(-(made + dw.padding) // dw.stride))
        return max(1, oh // max(BAND_BYTES // max(row_bytes), *need, 1))

    def _banded(self, x: np.ndarray, bands: int) -> Tensor:
        """The eval forward in ``bands`` bands of depthwise output
        rows, of sizes that differ by at most one.

        The depthwise input lives in a window of the zero-padded rows one
        band reads. The stage before the depthwise one writes each
        of its output rows into the window once, through its batch norm's
        ``out``; rows the next band reads again move to the window's top,
        and rows in the padding are zeroed. Each band's depthwise conv runs
        with ``padding=0`` on the window, and its later stages on the
        band's rows, the last one's batch norm writing into the output.
        Every conv and batch norm is the whole plane's call on fewer rows:
        the same kernels and the same float32 operations per element, so
        the same bits, and in sum the same multiply-adds.
        """
        (pre, dw), last = self._plan, len(self.stages) - 1
        n = x.shape[0]
        h, w = out_hw(*x.shape[2:], pre.stride)
        oh, ow = out_hw(h, w, dw.stride)
        k, stride, pad = dw.kernel, dw.stride, dw.padding
        most = -(-oh // bands)
        window = np.zeros((n, dw.c_in, stride * (most - 1) + k, w + 2 * pad), dtype=DTYPE)
        out = np.empty((n, self.stages[-1].c_out, oh, ow), dtype=DTYPE)
        top = done = 0  # padded rows: the window's first, and the first not yet made
        for j in range(bands):
            r0, r1 = j * oh // bands, (j + 1) * oh // bands
            lo, hi = stride * r0, stride * (r1 - 1) + k  # the padded rows the band reads
            window[:, :, :done - lo] = window[:, :, lo - top:done - top]
            top = lo
            # padded rows [done, hi) hold input rows [a, b) and padding
            a, b = min(max(done - pad, 0), h), max(min(hi - pad, h), 0)
            window[:, :, done - top:a + pad - top] = 0
            window[:, :, max(b + pad, done) - top:hi - top] = 0
            if a < b:
                t = conv2d(_padded_rows(x, pre, a, b), self.weight[pre.name],
                           stride=pre.stride, padding=0)
                batch_norm(t, *self.bn[pre.name], training=False, relu6=True,
                           out=window[:, :, a + pad - top:b + pad - top, pad:pad + w])
            done = hi
            t = window[:, :, lo - top:hi - top]
            assert _dw_kernel(n, dw.c_in, hi - lo, t.shape[3], k, stride, 0, False) == "taps"
            for i, s in enumerate(self.stages[1:], 1):
                t = conv2d(t, self.weight[s.name], stride=s.stride, padding=0, groups=s.groups)
                t = batch_norm(t, *self.bn[s.name], training=False, relu6=i < last,
                               out=out[:, :, r0:r1] if i == last else t.data)
        return Tensor(out)


# An eval chain runs in bands of rows that hold about this many
# bytes of each stage output (ConvChain._bands). On a 2-core VM at one BLAS
# thread, a table1-adapt pass peaked at 169, 189 and 241 MB with 4, 8 and
# 16 MB bands, and its two eval forwards at 800x1088 took 11 %, 5 % and
# 2 % longer than on whole planes.
BAND_BYTES = 8 << 20
# OpenBLAS on AVX-512 runs a matmul of at most 100^3 multiply-adds through a
# small-matrix kernel that rounds differently from its blocked kernels, so
# the same pixels can come out of a small product and a large one with
# different bits; a large product gives every pixel the same bits however
# its pixels are split. Each band's matmuls stay above this size.
_SMALL_GEMM_MADDS = 100 ** 3


def _padded_rows(x: np.ndarray, stage: ConvStage, a: int, b: int) -> np.ndarray:
    """The zero-padded rows of ``x`` that output rows [a, b) of ``stage`` read."""
    n, c, h, w = x.shape
    pad = stage.padding
    first = stage.stride * a - pad
    out = np.zeros((n, c, stage.stride * (b - a - 1) + stage.kernel, w + 2 * pad), dtype=DTYPE)
    lo, hi = max(first, 0), min(first + out.shape[2], h)
    out[:, :, lo - first:hi - first, pad:pad + w] = x[:, :, lo:hi]
    return out
