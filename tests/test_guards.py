"""Library guards that no CLI input reaches: each raises its error type
with its message, when a caller breaks the function's contract."""

from dataclasses import replace

import numpy as np
import pytest

from nasadapt.costmodel import build_madds_table, expected_cost_per_block, madds_of_discrete
from nasadapt.derive import default_source_architecture, derive_architecture, instantiate
from nasadapt.errors import ContractError, DimensionError, ParameterError
from nasadapt.layers import TensorSource
from nasadapt.numerics import Tensor
from nasadapt.paramap import MappingReport, verify_function_preservation
from nasadapt.searchspace import load_bundled_config
from nasadapt.supernet import build_masks, build_supernet, mixed_op_forward
from nasadapt.toytask import _shape_mask

from helpers import zero_logits

CONFIG = load_bundled_config("desk3")


def nan_logits(part):
    """Zero logits with a NaN in block 0's first ``part`` ("alpha" or "beta") vector."""
    alpha, beta = zero_logits(CONFIG)
    (alpha[0][0] if part == "alpha" else beta[0])[0] = np.nan
    return alpha, beta


def long_logits(part):
    """Zero logits whose block 0's first ``part`` vector has one entry too many."""
    alpha, beta = zero_logits(CONFIG)
    vecs = alpha[0] if part == "alpha" else beta
    vecs[0] = np.append(vecs[0], np.float32(0))
    return alpha, beta


def expected_cost_of(alpha, beta):
    return expected_cost_per_block([[Tensor(v) for v in vecs] for vecs in alpha],
                                   [Tensor(v) for v in beta], build_madds_table(CONFIG))


def duplicate_target():
    report = MappingReport()
    for _ in range(2):
        report.add("stem/conv/weight", "stem/conv/weight", [], 0, False)


def block_counts_differ():
    source = default_source_architecture(CONFIG)
    shorter = replace(source, blocks=source.blocks[:2])
    verify_function_preservation(instantiate(source, seed=0), instantiate(shorter, seed=0),
                                 samples=1)


def wrong_input_width():
    layer = build_supernet(CONFIG, seed=0).blocks[0].layers[0]
    c_in = layer[0].stages[0].c_in
    mixed_op_forward(Tensor(np.zeros((1, c_in + 1, 8, 8), dtype=np.float32)), layer,
                     Tensor(np.zeros(len(layer), dtype=np.float32)))


def no_op_block():
    source = default_source_architecture(CONFIG)
    madds_of_discrete(replace(source, blocks=(replace(source.blocks[0], ops=()),
                                              *source.blocks[1:])), CONFIG)


GUARDS = {
    "derive-nan-alpha": (lambda: derive_architecture(*nan_logits("alpha"), CONFIG),
                         ContractError, "non-finite operation logits for block 0 layer 0"),
    "derive-nan-beta": (lambda: derive_architecture(*nan_logits("beta"), CONFIG),
                        ContractError, "non-finite channel logits for block 0"),
    "cost-block-count": (lambda: expected_cost_of(*(v[:2] for v in zero_logits(CONFIG))),
                         ContractError, "logits cover 2/2 blocks, table has 3"),
    "cost-alpha-length": (lambda: expected_cost_of(*long_logits("alpha")),
                          ContractError, "alpha length 3 does not match table ops 2"),
    "cost-beta-length": (lambda: expected_cost_of(*long_logits("beta")),
                         ContractError, "beta length 4 does not match table channels 3"),
    "masks-not-ascending": (lambda: build_masks([8, 4]),
                            ParameterError, "channel candidates must be strictly ascending"),
    "mixed-op-width": (wrong_input_width, DimensionError,
                       "weight expects 8 channels per group, input provides 9"),
    "unknown-shape": (lambda: _shape_mask("hexagon", 16, 16, 8.0, 8.0, 4.0),
                      ParameterError, "unknown shape kind 'hexagon'"),
    "report-target-twice": (duplicate_target, ContractError,
                            "target tensor 'stem/conv/weight' mapped twice"),
    "verify-block-counts": (block_counts_differ, ContractError,
                            "networks have different block counts"),
    "madds-no-op": (no_op_block, ContractError, "block 0: architecture retains no operation"),
    "source-seed-and-arrays": (lambda: TensorSource(seed=0, arrays={}), ParameterError,
                               "a tensor source takes exactly one of a seed and arrays"),
    "source-neither": (lambda: TensorSource(), ParameterError,
                       "a tensor source takes exactly one of a seed and arrays"),
}


@pytest.mark.parametrize("case", GUARDS, ids=str)
def test_guard(case):
    call, error, start = GUARDS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start), str(info.value)
