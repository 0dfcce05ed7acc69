"""Continuous relaxation of the search space.

A mixed operation is the softmax(alpha)-weighted sum of its candidate
operations' outputs. A mixed block runs its n_max mixed operations once
at the block's maximum width and multiplies the final feature map,
elementwise over channels, by the softmax(beta)-weighted sum of binary
channel masks; the width choice never branches the forward pass.

Mask semantics (mode of :func:`build_masks`):

- ``non_overlapping``: mask m covers channel segment [c_{m-1}, c_m),
  with c_0 = 0. The masks partition the full width, so each candidate's
  weight scales its own segment alone, decoupling the candidates.
- ``overlapping``: mask m covers the prefix [0, c_m); masks are nested,
  so low channels accumulate the weights of every wider candidate.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .layers import Identity, MBConv, Stem, load_named_arrays
from .numerics import Tensor, matmul, reshape, softmax
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE
from .searchspace import BlockSpec, SearchSpaceConfig, channel_candidates, op_candidates

MASK_MODES = ("non_overlapping", "overlapping")


def build_masks(candidates: list[int], mode: str = "non_overlapping") -> np.ndarray:
    """Binary mask matrix, one row of length max(candidates) per candidate."""
    if mode not in MASK_MODES:
        raise ParameterError(f"mask mode must be one of {MASK_MODES}, got {mode!r}")
    if list(candidates) != sorted(candidates) or len(set(candidates)) != len(candidates):
        raise ParameterError(f"channel candidates must be strictly ascending, got {candidates}")
    full = candidates[-1]
    masks = np.zeros((len(candidates), full), dtype=DTYPE)
    prev = 0
    for m, c in enumerate(candidates):
        if mode == "non_overlapping":
            masks[m, prev:c] = 1.0
            prev = c
        else:
            masks[m, :c] = 1.0
    return masks


class MixedLayer:
    """One searchable operation slot: all candidates plus their logits' home."""

    def __init__(self, spec: BlockSpec, layer: int, c_in: int, c_out: int,
                 rng: np.random.Generator):
        self.candidates = op_candidates(spec, layer)
        self.stride = spec.stride if layer == 1 else 1
        self.c_in = c_in
        self.c_out = c_out
        self.ops = []
        for cand in self.candidates:
            if cand.kind == "skip":
                if self.stride != 1 or c_in != c_out:
                    raise DimensionError(
                        f"skip candidate needs stride 1 and equal widths, got "
                        f"stride={self.stride}, {c_in}->{c_out}")
                self.ops.append(Identity())
            else:
                self.ops.append(MBConv(c_in, c_out, cand.kernel, cand.expansion,
                                       self.stride, rng))

    def named_params(self, prefix: str):
        out = []
        for o, op in enumerate(self.ops):
            out.extend(op.named_params(f"{prefix}/op{o}"))
        return out

    def named_state(self, prefix: str):
        out = []
        for o, op in enumerate(self.ops):
            out.extend(op.named_state(f"{prefix}/op{o}"))
        return out


def mixed_op_forward(x: Tensor, layer: MixedLayer, alpha_logits: Tensor,
                     training: bool = True, update_stats: bool | None = None) -> Tensor:
    """softmax(alpha)-weighted sum of every candidate's output."""
    if x.data.shape[1] != layer.c_in:
        raise DimensionError(f"mixed op expects {layer.c_in} input channels, "
                             f"got {x.data.shape[1]}")
    weights = softmax(alpha_logits)
    out = None
    for idx, op in enumerate(layer.ops):
        term = op(x, training, update_stats) * weights[idx]
        out = term if out is None else out + term
    return out


class MixedBlock:
    """n_max mixed operations at full width, masked once at the output."""

    def __init__(self, spec: BlockSpec, c_in: int, mask_mode: str,
                 rng: np.random.Generator):
        self.spec = spec
        self.candidates = channel_candidates(spec)
        self.c_full = self.candidates[-1]
        self.masks = build_masks(self.candidates, mask_mode)
        self.layers = [
            MixedLayer(spec, layer, c_in if layer == 1 else self.c_full, self.c_full, rng)
            for layer in range(1, spec.n_max + 1)
        ]

    def named_params(self, prefix: str):
        out = []
        for l, layer in enumerate(self.layers):
            out.extend(layer.named_params(f"{prefix}/layer{l}"))
        return out

    def named_state(self, prefix: str):
        out = []
        for l, layer in enumerate(self.layers):
            out.extend(layer.named_state(f"{prefix}/layer{l}"))
        return out


def mixed_block_forward(x: Tensor, block: MixedBlock, alpha_logits: list[Tensor],
                        beta_logits: Tensor, training: bool = True,
                        update_stats: bool | None = None) -> Tensor:
    """One shared pass through the block's layers, then the channel-mask mix.

    The operation count is independent of how many channel candidates the
    block has: softmax(beta) only reweights constant mask rows.
    """
    if x.data.shape[1] != block.layers[0].c_in:
        raise DimensionError(f"block expects {block.layers[0].c_in} input channels, "
                             f"got {x.data.shape[1]}")
    h = x
    for layer, logits in zip(block.layers, alpha_logits):
        h = mixed_op_forward(h, layer, logits, training, update_stats)
    weights = softmax(beta_logits)
    mask_vec = matmul(weights, Tensor(block.masks))
    return h * reshape(mask_vec, (1, block.c_full, 1, 1))


class Supernet:
    """Stem plus K mixed blocks with architecture logits alpha and beta."""

    def __init__(self, config: SearchSpaceConfig, seed: int,
                 mask_mode: str = "non_overlapping"):
        self.config = config
        rng = np.random.Generator(np.random.PCG64(seed))
        self.stem = Stem(config.stem.conv_channels, config.stem.mbconv_channels, rng)
        self.blocks = []
        c_in = config.stem.mbconv_channels
        for spec in config.blocks:
            block = MixedBlock(spec, c_in, mask_mode, rng)
            self.blocks.append(block)
            c_in = block.c_full
        self.alpha, self.beta = _nest(config, {
            name: Tensor(np.zeros(length, dtype=DTYPE), requires_grad=True)
            for name, length in logit_lengths(config).items()})

    @property
    def final_channels(self) -> int:
        return self.blocks[-1].c_full

    def forward(self, x, training: bool = True,
                update_stats: bool | None = None) -> list[Tensor]:
        """Run stem then every block; returns all K block feature maps."""
        h = x if isinstance(x, Tensor) else Tensor(x)
        h = self.stem(h, training, update_stats)
        feats = []
        for i, block in enumerate(self.blocks):
            h = mixed_block_forward(h, block, self.alpha[i], self.beta[i],
                                    training, update_stats)
            feats.append(h)
        return feats

    def weight_params(self) -> list[Tensor]:
        """Operation parameters w: every trainable tensor except alpha/beta."""
        return [t for _, t in self.named_weight_params()]

    def arch_params(self) -> list[Tensor]:
        out = [v for layer_vecs in self.alpha for v in layer_vecs]
        out.extend(self.beta)
        return out

    def named_weight_params(self):
        out = self.stem.named_params("stem")
        for i, block in enumerate(self.blocks):
            out.extend(block.named_params(f"block{i}"))
        return out

    def named_state(self):
        out = self.stem.named_state("stem")
        for i, block in enumerate(self.blocks):
            out.extend(block.named_state(f"block{i}"))
        return out

    def named_arch_params(self):
        return list(zip(logit_lengths(self.config), self.arch_params()))

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: t.data for name, t in self.named_arch_params()}
        arrays.update({name: t.data for name, t in self.named_weight_params()})
        arrays.update({name: buf for name, buf in self.named_state()})
        return arrays

    def save(self, path) -> None:
        save_tensors(path, self.to_arrays())

    def load(self, path) -> None:
        arrays = load_tensors(path)
        named_params = self.named_arch_params() + self.named_weight_params()
        load_named_arrays(named_params, self.named_state(), arrays)


def build_supernet(config: SearchSpaceConfig, seed: int,
                   mask_mode: str = "non_overlapping") -> Supernet:
    """Deterministically initialized supernet; all logits start at zero."""
    return Supernet(config, seed, mask_mode)


def logit_lengths(config: SearchSpaceConfig) -> dict[str, int]:
    """Checkpoint name and length of every architecture-logit vector.

    ``alpha/{i}/{l}`` scores the operation candidates of layer l in block
    i, ``beta/{i}`` the channel candidates of block i (indices 0-based);
    all alpha vectors come first, in block then layer order.
    """
    lengths = {}
    for i, spec in enumerate(config.blocks):
        for l in range(spec.n_max):
            lengths[f"alpha/{i}/{l}"] = len(op_candidates(spec, l + 1))
    for i, spec in enumerate(config.blocks):
        lengths[f"beta/{i}"] = len(channel_candidates(spec))
    return lengths


def _nest(config: SearchSpaceConfig, vectors: dict):
    """Arrange logit vectors keyed by checkpoint name as (alpha, beta)."""
    alpha = [[vectors[f"alpha/{i}/{l}"] for l in range(spec.n_max)]
             for i, spec in enumerate(config.blocks)]
    beta = [vectors[f"beta/{i}"] for i in range(len(config.blocks))]
    return alpha, beta


def load_logits(path, config: SearchSpaceConfig):
    """Read a supernet checkpoint's architecture logits, without building it.

    Returns (alpha, beta) as constant tensors nested like
    ``Supernet.alpha``/``Supernet.beta``. The checkpoint's ``alpha/*`` and
    ``beta/*`` vectors must be exactly the space's, with the space's
    lengths; weights are not read.
    """
    arrays = load_tensors(path)
    lengths = logit_lengths(config)
    found = {name for name in arrays if name.startswith(("alpha/", "beta/"))}
    if found != lengths.keys():
        missing = sorted(lengths.keys() - found)
        extra = sorted(found - lengths.keys())
        raise ContractError(
            f"{path}: architecture logits do not match the search space: "
            f"{len(missing)} missing {missing[:3]}, {len(extra)} unexpected {extra[:3]}")
    for name, length in lengths.items():
        if arrays[name].shape != (length,):
            raise ContractError(
                f"{path}: '{name}' has shape {arrays[name].shape}, the search space "
                f"expects ({length},)")
    return _nest(config, {name: Tensor(arrays[name]) for name in lengths})
