"""Network building blocks shared by the supernet and derived networks.

Every network is a chain of conv stages: a bias-free square-kernel
convolution with shape-preserving padding, then batch normalization. This
module states, once, the stage list of an inverted-residual operation
(MBConv: a 1x1 ``expand`` to ``expansion * c_in`` channels, omitted at
expansion 1, a kxk ``depthwise`` carrying the stride, a 1x1 ``project``)
and of the stem (a strided 3x3 ``conv``, then a k3/e1 MBConv).
:class:`ConvChain` runs a stage list with relu6 after every stage but the
last; the parameter mapper and the cost model read the same lists.
Every module takes its tensors from a :class:`TensorSource` and names
each one where it creates it.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ParameterError
from .numerics import Tensor, batch_norm, conv2d, relu6
from .numerics.tensor import DTYPE
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
    nothing is drawn. ``params`` and ``state`` map names to the trainable
    tensors and the running statistics, in creation order.
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

    def _take(self, name: str, shape: tuple, init) -> tuple[str, np.ndarray]:
        name = self._prefix + name
        if self._arrays is None:
            return name, init(self._rng, shape)
        if name not in self._arrays:
            raise ContractError(f"missing tensor '{name}'")
        if self._arrays[name].shape != shape:
            raise ContractError(f"tensor '{name}' has shape {self._arrays[name].shape}, "
                                f"the network expects {shape}")
        return name, np.array(self._arrays[name], dtype=DTYPE, order="C")

    def param(self, name: str, shape: tuple, init) -> Tensor:
        name, data = self._take(name, shape, init)
        tensor = self.params[name] = Tensor(data, requires_grad=True)
        return tensor

    def buffer(self, name: str, shape: tuple, init) -> np.ndarray:
        name, data = self._take(name, shape, init)
        self.state[name] = data
        return data

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded tensor's array: parameters, then running statistics."""
        return {name: t.data for name, t in self.params.items()} | self.state


@dataclass(frozen=True)
class ConvStage:
    """One conv + batch norm; its tensors live under ``name/``."""

    name: str
    c_in: int
    c_out: int
    kernel: int
    stride: int = 1
    groups: int = 1


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
    """Runs a stage list: conv then batch norm per stage, relu6 between stages;
    an empty list is the identity (a skip). ``weight`` maps each stage's name
    to its conv weight, and ``bn`` to its batch norm's gamma, beta, running
    mean and running variance."""

    def __init__(self, stages: tuple[ConvStage, ...], source: TensorSource):
        self.stages = stages
        self.weight: dict[str, Tensor] = {}
        self.bn: dict[str, tuple[Tensor, Tensor, np.ndarray, np.ndarray]] = {}
        for s in stages:
            scoped = source.scope(s.name)
            self.weight[s.name] = scoped.param(
                "weight", (s.c_out, s.c_in // s.groups, s.kernel, s.kernel), trunc_normal)
            bn = scoped.scope("bn")
            self.bn[s.name] = (bn.param("gamma", (s.c_out,), ones),
                               bn.param("beta", (s.c_out,), zeros),
                               bn.buffer("mean", (s.c_out,), zeros),
                               bn.buffer("var", (s.c_out,), ones))

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        h = x
        for n, s in enumerate(self.stages):
            if n:
                h = relu6(h)
            h = conv2d(h, self.weight[s.name], stride=s.stride, padding=(s.kernel - 1) // 2,
                       groups=s.groups)
            h = batch_norm(h, *self.bn[s.name], training=training, update_stats=update_stats)
        return h
