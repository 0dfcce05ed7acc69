"""Network building blocks shared by the supernet and derived networks.

An inverted-residual operation (MBConv) is a pointwise expansion, a
depthwise convolution, and a pointwise projection, each followed by batch
normalization; the first two stages end in a relu6, the projection stays
linear. With expansion factor 1 the expansion stage is omitted. No
convolution carries a bias (normalization absorbs it).

Every module takes its tensors from a :class:`TensorSource` and names
each one where it creates it.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping

import numpy as np

from .errors import ContractError, ParameterError
from .numerics import Tensor, batch_norm, conv2d, relu6
from .numerics.tensor import DTYPE


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) truncated to two standard deviations by resampling."""
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


class Conv2d:
    """Square-kernel convolution with shape-preserving padding, no bias."""

    def __init__(self, c_in: int, c_out: int, kernel: int, source: TensorSource,
                 stride: int = 1, groups: int = 1):
        self.stride = stride
        self.groups = groups
        self.padding = (kernel - 1) // 2
        self.weight = source.param("weight", (c_out, c_in // groups, kernel, kernel),
                                   trunc_normal)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding,
                      groups=self.groups)


class BatchNorm2d:
    def __init__(self, channels: int, source: TensorSource):
        self.gamma = source.param("gamma", (channels,), ones)
        self.beta = source.param("beta", (channels,), zeros)
        self.running_mean = source.buffer("mean", (channels,), zeros)
        self.running_var = source.buffer("var", (channels,), ones)

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=training, update_stats=update_stats)


class MBConv:
    """Inverted residual operation: expand (optional), depthwise, project."""

    def __init__(self, c_in: int, c_out: int, kernel: int, expansion: int,
                 stride: int, source: TensorSource):
        hidden = expansion * c_in
        if expansion != 1:
            self.expand = Conv2d(c_in, hidden, 1, source.scope("expand"))
            self.expand_bn = BatchNorm2d(hidden, source.scope("expand/bn"))
        else:
            self.expand = None
            self.expand_bn = None
        self.depthwise = Conv2d(hidden, hidden, kernel, source.scope("depthwise"),
                                stride=stride, groups=hidden)
        self.depthwise_bn = BatchNorm2d(hidden, source.scope("depthwise/bn"))
        self.project = Conv2d(hidden, c_out, 1, source.scope("project"))
        self.project_bn = BatchNorm2d(c_out, source.scope("project/bn"))

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        h = x
        if self.expand is not None:
            h = relu6(self.expand_bn(self.expand(h), training, update_stats))
        h = relu6(self.depthwise_bn(self.depthwise(h), training, update_stats))
        return self.project_bn(self.project(h), training, update_stats)


class Identity:
    """Skip connection: width- and stride-preserving pass-through."""

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        return x


class Stem:
    """Fixed entry: strided 3x3 conv + BN + relu6, then a k3/e1 MBConv."""

    def __init__(self, conv_channels: int, mbconv_channels: int, source: TensorSource):
        self.conv = Conv2d(3, conv_channels, 3, source.scope("conv"), stride=2)
        self.bn = BatchNorm2d(conv_channels, source.scope("conv/bn"))
        self.mbconv = MBConv(conv_channels, mbconv_channels, kernel=3, expansion=1,
                             stride=1, source=source.scope("mbconv"))

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        h = relu6(self.bn(self.conv(x), training, update_stats))
        return self.mbconv(h, training, update_stats)
