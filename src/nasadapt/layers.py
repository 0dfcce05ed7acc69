"""Network building blocks shared by the supernet and derived networks.

An inverted-residual operation (MBConv) is a pointwise expansion, a
depthwise convolution, and a pointwise projection, each followed by batch
normalization; the first two stages end in a relu6, the projection stays
linear. With expansion factor 1 the expansion stage is omitted. No
convolution carries a bias (normalization absorbs it).
"""

from __future__ import annotations

import numpy as np

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


class Conv2d:
    """Square-kernel convolution with shape-preserving padding, no bias."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1,
                 groups: int = 1, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.groups = groups
        self.padding = (kernel - 1) // 2
        self.weight = Tensor(trunc_normal(rng, (c_out, c_in // groups, kernel, kernel)),
                             requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding,
                      groups=self.groups)

    def named_params(self, prefix: str):
        return [(f"{prefix}/weight", self.weight)]

    def named_state(self, prefix: str):
        return []


class BatchNorm2d:
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels, dtype=DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=DTYPE), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=DTYPE)
        self.running_var = np.ones(channels, dtype=DTYPE)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=training, momentum=self.momentum, eps=self.eps,
                          update_stats=update_stats)

    def named_params(self, prefix: str):
        return [(f"{prefix}/gamma", self.gamma), (f"{prefix}/beta", self.beta)]

    def named_state(self, prefix: str):
        return [(f"{prefix}/mean", self.running_mean), (f"{prefix}/var", self.running_var)]


class MBConv:
    """Inverted residual operation: expand (optional), depthwise, project."""

    def __init__(self, c_in: int, c_out: int, kernel: int, expansion: int,
                 stride: int, rng: np.random.Generator):
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.expansion = expansion
        self.stride = stride
        hidden = expansion * c_in
        self.hidden = hidden
        if expansion != 1:
            self.expand = Conv2d(c_in, hidden, 1, rng=rng)
            self.expand_bn = BatchNorm2d(hidden)
        else:
            self.expand = None
            self.expand_bn = None
        self.depthwise = Conv2d(hidden, hidden, kernel, stride=stride, groups=hidden, rng=rng)
        self.depthwise_bn = BatchNorm2d(hidden)
        self.project = Conv2d(hidden, c_out, 1, rng=rng)
        self.project_bn = BatchNorm2d(c_out)

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        h = x
        if self.expand is not None:
            h = relu6(self.expand_bn(self.expand(h), training, update_stats))
        h = relu6(self.depthwise_bn(self.depthwise(h), training, update_stats))
        return self.project_bn(self.project(h), training, update_stats)

    def _stages(self):
        stages = []
        if self.expand is not None:
            stages += [("expand", self.expand), ("expand/bn", self.expand_bn)]
        stages += [("depthwise", self.depthwise), ("depthwise/bn", self.depthwise_bn),
                   ("project", self.project), ("project/bn", self.project_bn)]
        return stages

    def named_params(self, prefix: str):
        out = []
        for name, stage in self._stages():
            out.extend(stage.named_params(f"{prefix}/{name}"))
        return out

    def named_state(self, prefix: str):
        out = []
        for name, stage in self._stages():
            out.extend(stage.named_state(f"{prefix}/{name}"))
        return out


class Identity:
    """Skip connection: width- and stride-preserving pass-through."""

    kernel = None
    expansion = None

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        return x

    def named_params(self, prefix: str):
        return []

    def named_state(self, prefix: str):
        return []


class Stem:
    """Fixed entry: strided 3x3 conv + BN + relu6, then a k3/e1 MBConv."""

    def __init__(self, conv_channels: int, mbconv_channels: int, rng: np.random.Generator):
        self.conv_channels = conv_channels
        self.mbconv_channels = mbconv_channels
        self.conv = Conv2d(3, conv_channels, 3, stride=2, rng=rng)
        self.bn = BatchNorm2d(conv_channels)
        self.mbconv = MBConv(conv_channels, mbconv_channels, kernel=3, expansion=1,
                             stride=1, rng=rng)

    def __call__(self, x: Tensor, training: bool, update_stats: bool | None = None) -> Tensor:
        h = relu6(self.bn(self.conv(x), training, update_stats))
        return self.mbconv(h, training, update_stats)

    def named_params(self, prefix: str = "stem"):
        out = self.conv.named_params(f"{prefix}/conv")
        out += self.bn.named_params(f"{prefix}/conv/bn")
        out += self.mbconv.named_params(f"{prefix}/mbconv")
        return out

    def named_state(self, prefix: str = "stem"):
        out = self.bn.named_state(f"{prefix}/conv/bn")
        out += self.mbconv.named_state(f"{prefix}/mbconv")
        return out


def load_named_arrays(named_params, named_state, arrays: dict[str, np.ndarray]) -> None:
    """Copy arrays into parameter tensors and state buffers by name; every
    target must be present."""
    targets: dict[str, np.ndarray] = {}
    for name, tensor in named_params:
        targets[name] = tensor.data
    for name, buf in named_state:
        targets[name] = buf
    missing = [n for n in targets if n not in arrays]
    if missing:
        raise KeyError(f"checkpoint missing {len(missing)} tensors, first: {missing[:3]}")
    for name, dst in targets.items():
        src = arrays[name]
        if src.shape != dst.shape:
            raise ValueError(f"shape mismatch for '{name}': {src.shape} vs {dst.shape}")
        dst[...] = src
