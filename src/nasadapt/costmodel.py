"""Multiply-add cost model: lookup table and differentiable expected cost.

Input-channel convention
------------------------
The lookup table is indexed by (block, layer, channel candidate, op),
so the width flowing INTO a block cannot depend on the previous block's
eventual choice. By convention the first layer of block i is costed with
``c_in`` = the previous block's maximum channel candidate (the stem width
for block 0); layers past the first use the candidate being costed for
both input and output. :func:`madds_of_discrete` applies the same
convention so that expected cost under one-hot logits equals the discrete
cost exactly. Consequence: a discrete cost can exceed the deployed
network's true count when the previous block chose a non-maximal width;
the two agree exactly when every block picks its maximum candidate.

Normalization, activations, and elementwise adds are excluded from all
counts; a skip connection costs zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derive import DiscreteArchitecture
from .errors import ContractError, ParameterError
from .numerics import Tensor, matmul, softmax
from .searchspace import (
    OpCandidate,
    SearchSpaceConfig,
    channel_candidates,
    op_candidates,
)


@dataclass
class CostConfig:
    """Strength of the cost regularizer; cost enters the loss divided by
    ``normalizer`` (a source network's total MAdds) so lam is scale free."""

    lam: float
    normalizer: float | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if self.normalizer is not None and self.normalizer <= 0:
            raise ParameterError(f"normalizer must be > 0, got {self.normalizer}")


def _out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    # shape-preserving padding makes this kernel-independent
    return (h - 1) // stride + 1, (w - 1) // stride + 1


def conv_madds(c_in: int, c_out: int, k: int, h_out: int, w_out: int,
               groups: int = 1) -> int:
    return k * k * (c_in // groups) * c_out * h_out * w_out


def madds_of_op(op: OpCandidate, c_in: int, c_out: int, h: int, w: int,
                stride: int) -> int:
    """Exact multiply-add count of one operation at the given shape.

    An inverted residual costs expand (1x1 at input resolution, omitted
    for expansion factor 1) + depthwise (k^2 per hidden channel at output
    resolution) + project (1x1 at output resolution). Skip costs 0.
    """
    if min(c_in, c_out, h, w) < 1:
        raise ParameterError(
            f"dimensions must be positive, got c_in={c_in} c_out={c_out} h={h} w={w}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if op.kind == "skip":
        return 0
    if op.kind != "mbconv":
        raise ParameterError(f"unknown op kind '{op.kind}'")
    e, k = op.expansion, op.kernel
    hidden = e * c_in
    h_out, w_out = _out_hw(h, w, stride)
    total = 0
    if e != 1:
        total += conv_madds(c_in, hidden, 1, h, w)
    total += conv_madds(hidden, hidden, k, h_out, w_out, groups=hidden)
    total += conv_madds(hidden, c_out, 1, h_out, w_out)
    return total


def stem_madds(config: SearchSpaceConfig) -> int:
    """Cost of the fixed entry layers at the config's input resolution."""
    h, w = config.input_resolution
    h1, w1 = _out_hw(h, w, 2)
    total = conv_madds(3, config.stem.conv_channels, 3, h1, w1)
    total += madds_of_op(OpCandidate("mbconv", kernel=3, expansion=1),
                         config.stem.conv_channels, config.stem.mbconv_channels,
                         h1, w1, stride=1)
    return total


def block_input_sizes(config: SearchSpaceConfig) -> list[tuple[int, int]]:
    """Spatial size entering each block (after the stem's stride-2 conv)."""
    h, w = _out_hw(*config.input_resolution, 2)
    sizes = []
    for spec in config.blocks:
        sizes.append((h, w))
        h, w = _out_hw(h, w, spec.stride)
    return sizes


def _layer_madds(config: SearchSpaceConfig, index: int, layer: int,
                 op: OpCandidate, channels: int, size_in: tuple[int, int]) -> int:
    """Table-convention cost of layer ``layer`` (1-based) of block ``index``.

    The first layer reads the previous block's maximum width at the block's
    input size ``size_in`` and applies the block stride; later layers map
    ``channels`` to ``channels`` at the output size.
    """
    spec = config.blocks[index]
    h_in, w_in = size_in
    if layer == 1:
        return madds_of_op(op, config.block_input_channels(index), channels,
                           h_in, w_in, spec.stride)
    return madds_of_op(op, channels, channels, *_out_hw(h_in, w_in, spec.stride), 1)


@dataclass
class BlockCosts:
    """Per-layer cost matrices of one block, each (channels x ops)."""

    channel_cands: list[int]
    op_cands: list[list[OpCandidate]]
    layer_costs: list[np.ndarray]


@dataclass
class MAddsTable:
    """Precomputed cost of every (block, layer, channel, op) combination."""

    stem_cost: int
    blocks: list[BlockCosts]


def build_madds_table(config: SearchSpaceConfig) -> MAddsTable:
    """Tabulate _layer_madds over the whole space, touching each combination once."""
    sizes = block_input_sizes(config)
    blocks = []
    for i, spec in enumerate(config.blocks):
        cands = channel_candidates(spec)
        layer_costs = []
        op_cands = []
        for layer in range(1, spec.n_max + 1):
            ops = op_candidates(spec, layer)
            op_cands.append(ops)
            mat = np.zeros((len(cands), len(ops)), dtype=np.float64)
            for ci, c in enumerate(cands):
                for oi, op in enumerate(ops):
                    mat[ci, oi] = _layer_madds(config, i, layer, op, c, sizes[i])
            layer_costs.append(mat)
        blocks.append(BlockCosts(channel_cands=cands, op_cands=op_cands,
                                 layer_costs=layer_costs))
    return MAddsTable(stem_madds(config), blocks)


def expected_cost_per_block(alpha, beta, table: MAddsTable) -> list[Tensor]:
    """Differentiable expected MAdds of each block.

    A block's cost is the softmax(beta)-weighted sum over its channel
    candidates of its layer costs, each weighted over operations by
    softmax(alpha).
    """
    if len(alpha) != len(table.blocks) or len(beta) != len(table.blocks):
        raise ContractError(
            f"logits cover {len(alpha)}/{len(beta)} blocks, table has {len(table.blocks)}")
    out = []
    for alpha_block, beta_block, costs in zip(alpha, beta, table.blocks):
        per_channel = None
        for logits, mat in zip(alpha_block, costs.layer_costs):
            if logits.data.shape[0] != mat.shape[1]:
                raise ContractError(
                    f"alpha length {logits.data.shape[0]} does not match table ops "
                    f"{mat.shape[1]}")
            contrib = matmul(Tensor(mat.astype(np.float32)), softmax(logits))
            per_channel = contrib if per_channel is None else per_channel + contrib
        if beta_block.data.shape[0] != len(costs.channel_cands):
            raise ContractError(
                f"beta length {beta_block.data.shape[0]} does not match table "
                f"channels {len(costs.channel_cands)}")
        out.append(matmul(softmax(beta_block), per_channel))
    return out


def expected_cost(alpha, beta, table: MAddsTable) -> Tensor:
    """Differentiable expected MAdds of the relaxed network: stem plus every
    block's, added in block order."""
    total = Tensor(np.float32(table.stem_cost))
    for cost in expected_cost_per_block(alpha, beta, table):
        total = total + cost
    return total


def total_loss(model_loss: Tensor, cost: Tensor, cfg: CostConfig) -> Tensor:
    """model loss + lam * cost / normalizer (normalizer defaults to 1)."""
    norm = cfg.normalizer if cfg.normalizer is not None else 1.0
    return model_loss + cost * np.float32(cfg.lam / norm)


def _check_block_consistency(block, spec, index: int) -> None:
    cands = channel_candidates(spec)
    if block.channels not in cands:
        raise ContractError(
            f"block {index}: channels {block.channels} not among candidates {cands}")
    if not block.ops:
        raise ContractError(f"block {index}: architecture retains no operation")
    if len(block.ops) > spec.n_max:
        raise ContractError(
            f"block {index}: {len(block.ops)} ops exceed n_max {spec.n_max}")
    for j, op in enumerate(block.ops):
        expected_stride = spec.stride if j == 0 else 1
        if op.stride != expected_stride:
            raise ContractError(
                f"block {index} op {j}: stride {op.stride} != {expected_stride}")
        if op.kernel not in spec.kernels:
            raise ContractError(
                f"block {index} op {j}: kernel {op.kernel} not in {spec.kernels}")
        if op.expansion not in spec.expansions:
            raise ContractError(
                f"block {index} op {j}: expansion {op.expansion} not in {spec.expansions}")


def madds_of_discrete_per_block(arch: DiscreteArchitecture,
                                config: SearchSpaceConfig) -> list[int]:
    """Table-convention MAdds of each block of a discrete architecture."""
    if len(arch.blocks) != len(config.blocks):
        raise ContractError(
            f"architecture has {len(arch.blocks)} blocks, config has {len(config.blocks)}")
    if arch.stem != config.stem:
        raise ContractError(f"stem mismatch: {arch.stem} vs {config.stem}")
    if arch.input_resolution != config.input_resolution:
        raise ContractError(
            f"input resolution mismatch: {arch.input_resolution} vs "
            f"{config.input_resolution}")
    sizes = block_input_sizes(config)
    out = []
    for i, (block, spec) in enumerate(zip(arch.blocks, config.blocks)):
        _check_block_consistency(block, spec, i)
        out.append(sum(
            _layer_madds(config, i, j + 1,
                         OpCandidate("mbconv", kernel=op.kernel, expansion=op.expansion),
                         block.channels, sizes[i])
            for j, op in enumerate(block.ops)))
    return out


def madds_of_discrete(arch: DiscreteArchitecture, config: SearchSpaceConfig) -> int:
    """Table-convention MAdds of a discrete architecture: stem plus every block's."""
    return stem_madds(config) + sum(madds_of_discrete_per_block(arch, config))
