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

from .errors import ContractError, ParameterError
from .layers import ConvChain, ConvStage, TensorSource, mbconv_stages, stem_stages, zeros
from .numerics import Tensor, matmul, reshape, softmax
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE
from .searchspace import BlockSpec, SearchSpaceConfig, channel_candidates, op_candidates

MASK_MODES = ("non_overlapping", "overlapping")
_LOGIT_PREFIXES = ("alpha/", "beta/")


def check_mask_mode(mode: str) -> None:
    if mode not in MASK_MODES:
        raise ParameterError(f"mask mode must be one of {MASK_MODES}, got {mode!r}")


def build_masks(candidates: list[int], mode: str = "non_overlapping") -> np.ndarray:
    """Binary mask matrix, one row of length max(candidates) per candidate."""
    check_mask_mode(mode)
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


Candidate = tuple[str, tuple[ConvStage, ...]]


def layer_candidates(config: SearchSpaceConfig, block: int, layer: int,
                     channels: int) -> list[Candidate]:
    """(tensor prefix, stage list) of every operation candidate of layer
    ``layer`` of block ``block`` at width ``channels``, in logit order; a
    skip's list is empty. The first layer reads the previous block's full
    width (the stem's for block 0)."""
    spec = config.blocks[block]
    c_in = config.block_input_channels(block) if layer == 0 else channels
    return [(f"block{block}/layer{layer}/op{o}",
             () if cand.kind == "skip"
             else mbconv_stages(c_in, channels, cand.kernel, cand.expansion, cand.stride))
            for o, cand in enumerate(op_candidates(spec, layer))]


def space_layers(config: SearchSpaceConfig) -> list[list[list[Candidate]]]:
    """:func:`layer_candidates` of every layer of every block at the block's
    full width: the layout the supernet builds."""
    return [[layer_candidates(config, i, l, channel_candidates(spec)[-1])
             for l in range(spec.n_max)]
            for i, spec in enumerate(config.blocks)]


def mixed_op_forward(x: Tensor, layer: list[ConvChain], alpha_logits: Tensor,
                     training: bool = True, update_stats: bool | None = None) -> Tensor:
    """softmax(alpha)-weighted sum of every candidate chain's output."""
    weights = softmax(alpha_logits)
    out = None
    for idx, op in enumerate(layer):
        term = op(x, training, update_stats) * weights[idx]
        out = term if out is None else out + term
    return out


class MixedBlock:
    """n_max mixed operations at full width, masked once at the output: each
    layer is its candidates' chains in logit order, and the mask matrix is
    (channel candidates, full width)."""

    def __init__(self, spec: BlockSpec, layers: list[list[Candidate]], mask_mode: str,
                 source: TensorSource):
        self.masks = build_masks(channel_candidates(spec), mask_mode)
        self.layers = [[ConvChain(stages, source.scope(prefix)) for prefix, stages in layout]
                       for layout in layers]


def mixed_block_forward(x: Tensor, block: MixedBlock, alpha_logits: list[Tensor],
                        beta_logits: Tensor, training: bool = True,
                        update_stats: bool | None = None) -> Tensor:
    """One shared pass through the block's layers, then the channel-mask mix.

    The operation count is independent of how many channel candidates the
    block has: softmax(beta) only reweights constant mask rows.
    """
    h = x
    for layer, logits in zip(block.layers, alpha_logits):
        h = mixed_op_forward(h, layer, logits, training, update_stats)
    weights = softmax(beta_logits)
    mask_vec = matmul(weights, Tensor(block.masks))
    return h * reshape(mask_vec, (1, -1, 1, 1))


class Supernet:
    """Stem plus K mixed blocks with architecture logits alpha and beta."""

    def __init__(self, config: SearchSpaceConfig, source: TensorSource,
                 mask_mode: str = "non_overlapping"):
        self.config = config
        self.alpha, self.beta = _nest(config, {
            name: source.param(name, (length,), zeros)
            for name, length in logit_lengths(config).items()})
        self.stem = ConvChain(stem_stages(config.stem), source.scope("stem"))
        self.blocks = [MixedBlock(spec, layers, mask_mode, source)
                       for spec, layers in zip(config.blocks, space_layers(config))]
        self._tensors = source.close()

    @property
    def final_channels(self) -> int:
        return self.blocks[-1].masks.shape[1]

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
        return [(name, t) for name, t in self._tensors.params.items()
                if not name.startswith(_LOGIT_PREFIXES)]

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Logits, then parameters, then running statistics, by name."""
        return self._tensors.arrays()

    def save(self, path) -> None:
        save_tensors(path, self.to_arrays())


def build_supernet(config: SearchSpaceConfig, seed: int | None = None,
                   mask_mode: str = "non_overlapping",
                   arrays: dict[str, np.ndarray] | None = None) -> Supernet:
    """A supernet whose tensors are drawn from ``seed`` (all logits zero) or
    copied from ``arrays``, a complete supernet checkpoint."""
    return Supernet(config, TensorSource(seed, arrays), mask_mode)


def logit_lengths(config: SearchSpaceConfig) -> dict[str, int]:
    """Checkpoint name and length of every architecture-logit vector.

    ``alpha/{i}/{l}`` scores the operation candidates of layer l in block
    i, ``beta/{i}`` the channel candidates of block i; all alpha vectors
    come first, in block then layer order.
    """
    lengths = {}
    for i, spec in enumerate(config.blocks):
        for l in range(spec.n_max):
            lengths[f"alpha/{i}/{l}"] = len(op_candidates(spec, l))
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
    lengths; like every container, the file must hold only finite values.
    """
    arrays = load_tensors(path)
    lengths = logit_lengths(config)
    found = {name for name in arrays if name.startswith(_LOGIT_PREFIXES)}
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
