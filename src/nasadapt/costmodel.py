"""Multiply-add cost model: lookup table and differentiable expected cost.

Input-channel convention
------------------------
The lookup table is indexed by (block, layer, channel candidate, op),
so the width flowing INTO a block cannot depend on the previous block's
eventual choice. By convention the first layer of block i is costed with
``c_in`` = the previous block's maximum channel candidate (the stem width
for block 0); layers past the first use the candidate being costed for
both input and output. :func:`madds_of_discrete` reads its entries from
the table, so expected cost under one-hot logits equals the discrete cost
exactly. Consequence: a discrete cost can exceed the deployed
network's true count when the previous block chose a non-maximal width;
the two agree exactly when every block picks its maximum candidate.

Every count sums, over the stage list the networks are built from, each
stage's weight entries times its output plane (:func:`layers.out_hw`).
The plane each layer reads is walked through the stage lists too: the
stem's gives block 0's first plane, and a layer's candidates, which share
one stride, give the next layer's. Normalization, activations and
elementwise adds are excluded; a skip (an empty stage list) costs zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derive import DiscreteArchitecture
from .errors import ContractError
from .layers import ConvStage, out_hw, stem_stages
from .numerics import Tensor, matmul, softmax
from .searchspace import SearchSpaceConfig, channel_candidates, op_candidates
from .supernet import layer_candidates


def stages_madds(stages: tuple[ConvStage, ...], h: int, w: int) -> int:
    """Multiply-adds of a stage list on an h x w input: each stage's conv
    counted at its output size."""
    total = 0
    for s in stages:
        h, w = out_hw(h, w, s.stride)
        total += s.c_out * (s.c_in // s.groups) * s.kernel ** 2 * h * w
    return total


def stem_madds(config: SearchSpaceConfig) -> int:
    """Cost of the fixed entry layers at the config's input resolution."""
    return stages_madds(stem_stages(config.stem), *config.input_resolution)


def _out_plane(stages: tuple[ConvStage, ...], h: int, w: int) -> tuple[int, int]:
    """The output plane of a stage list on an h x w input."""
    for s in stages:
        h, w = out_hw(h, w, s.stride)
    return h, w


@dataclass
class MAddsTable:
    """Precomputed cost of every (block, layer, channel, op) combination:
    ``blocks[i][l]`` is layer l of block i's (channels x ops) matrix."""

    stem_cost: int
    blocks: list[list[np.ndarray]]


def build_madds_table(config: SearchSpaceConfig) -> MAddsTable:
    """Cost every layer's candidate stage lists at every width of its block,
    each on the plane that the layer reads."""
    plane = _out_plane(stem_stages(config.stem), *config.input_resolution)
    blocks = []
    for i, spec in enumerate(config.blocks):
        costs = []
        for l in range(spec.n_max):
            rows = [layer_candidates(config, i, l, c) for c in channel_candidates(spec)]
            costs.append(np.array([[stages_madds(stages, *plane) for _, stages in row]
                                   for row in rows], dtype=np.float64))
            # the candidates share one stride, and the first is never a skip
            _, first = rows[0][0]
            plane = _out_plane(first, *plane)
        blocks.append(costs)
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
        for logits, mat in zip(alpha_block, costs):
            if logits.data.shape[0] != mat.shape[1]:
                raise ContractError(
                    f"alpha length {logits.data.shape[0]} does not match table ops "
                    f"{mat.shape[1]}")
            contrib = matmul(Tensor(mat.astype(np.float32)), softmax(logits))
            per_channel = contrib if per_channel is None else per_channel + contrib
        if beta_block.data.shape[0] != costs[0].shape[0]:
            raise ContractError(
                f"beta length {beta_block.data.shape[0]} does not match table "
                f"channels {costs[0].shape[0]}")
        out.append(matmul(softmax(beta_block), per_channel))
    return out


def expected_cost(alpha, beta, table: MAddsTable) -> Tensor:
    """Differentiable expected MAdds of the relaxed network: stem plus every
    block's, added in block order."""
    total = Tensor(np.float32(table.stem_cost))
    for cost in expected_cost_per_block(alpha, beta, table):
        total = total + cost
    return total


def total_loss(model_loss: Tensor, cost: Tensor, lam: float, normalizer: float) -> Tensor:
    """model loss + lam * cost / normalizer; with a source network's MAdds as
    the normalizer, lam is scale free."""
    return model_loss + cost * np.float32(lam / normalizer)


def _indices(block, spec, index: int) -> tuple[int, list[int]]:
    """The block's channel index, and each op's index among its layer's
    candidates; a block outside its space is a ContractError."""
    cands = channel_candidates(spec)
    if block.channels not in cands:
        raise ContractError(
            f"block {index}: channels {block.channels} not among candidates {cands}")
    if not block.ops:
        raise ContractError(f"block {index}: architecture retains no operation")
    if len(block.ops) > spec.n_max:
        raise ContractError(
            f"block {index}: {len(block.ops)} ops exceed n_max {spec.n_max}")
    indices = []
    for j, op in enumerate(block.ops):
        offered = op_candidates(spec, j)
        if op not in offered:
            raise ContractError(
                f"block {index} op {j}: kernel {op.kernel}, expansion {op.expansion}, "
                f"stride {op.stride} is not among its layer's candidates: kernels "
                f"{spec.kernels}, expansions {spec.expansions}, stride {offered[0].stride}")
        indices.append(offered.index(op))
    return cands.index(block.channels), indices


def madds_of_discrete_per_block(arch: DiscreteArchitecture,
                                config: SearchSpaceConfig) -> list[int]:
    """Table-convention MAdds of each block of a discrete architecture: the
    sum of the table's entries at its channel index and op indices. The
    architecture is checked against the space before the table is built."""
    if len(arch.blocks) != len(config.blocks):
        raise ContractError(
            f"architecture has {len(arch.blocks)} blocks, config has {len(config.blocks)}")
    if arch.stem != config.stem:
        raise ContractError(f"stem mismatch: {arch.stem} vs {config.stem}")
    if arch.input_resolution != config.input_resolution:
        raise ContractError(
            f"input resolution mismatch: {arch.input_resolution} vs "
            f"{config.input_resolution}")
    chosen = [_indices(block, spec, i)
              for i, (block, spec) in enumerate(zip(arch.blocks, config.blocks))]
    table = build_madds_table(config)
    return [sum(int(costs[j][c, o]) for j, o in enumerate(ops))
            for (c, ops), costs in zip(chosen, table.blocks)]


def madds_of_discrete(arch: DiscreteArchitecture, config: SearchSpaceConfig) -> int:
    """Table-convention MAdds of a discrete architecture: stem plus every block's."""
    return stem_madds(config) + sum(madds_of_discrete_per_block(arch, config))
