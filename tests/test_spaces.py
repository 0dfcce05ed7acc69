"""Properties of every small valid search space, drawn by Hypothesis: the
supernet builds, derivation stays inside the space, the expected cost under
one-hot logits is the discrete cost, the table prices the deployed source
network, and the up-front mapping check rejects exactly the spaces whose
default source cannot map."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt.costmodel import build_madds_table, expected_cost, madds_of_discrete
from nasadapt.derive import default_source_architecture, derive_architecture, instantiate
from nasadapt.errors import ContractError
from nasadapt.numerics import Tensor, count_madds
from nasadapt.paramap import check_source_maps
from nasadapt.searchspace import parse_config
from nasadapt.supernet import build_supernet

from helpers import random_logits


def subset(values):
    return st.lists(st.sampled_from(values), min_size=1, unique=True).map(sorted)


@st.composite
def channel_ranges(draw):
    lo = draw(st.integers(1, 8))
    hi = draw(st.integers(lo, 8))
    step = draw(st.sampled_from([s for s in range(1, 8) if (hi - lo) % s == 0]))
    return [lo, hi, step]


blocks = st.fixed_dictionaries({
    "n_max": st.integers(1, 3),
    "stride": st.sampled_from([1, 2]),
    "kernels": subset([1, 3, 5, 7]),
    "expansions": subset([1, 2, 3, 6]),
    "channels": channel_ranges(),
})

# space documents the schema admits, at desk scale
spaces = st.fixed_dictionaries({
    "v": st.just(1),
    "input_resolution": st.lists(st.integers(16, 24), min_size=2, max_size=2),
    "stem": st.fixed_dictionaries({"conv_channels": st.integers(1, 8),
                                   "mbconv_channels": st.integers(1, 8)}),
    "blocks": st.lists(blocks, min_size=1, max_size=4),
}).map(lambda doc: parse_config(json.dumps(doc)))


def one_hot(logits):
    """Logits whose float32 softmax is exactly 1 at the argmax and 0 elsewhere."""
    out = np.full(len(logits), -1e4, dtype=np.float32)
    out[int(np.argmax(logits))] = 0.0
    return Tensor(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=spaces, seed=st.integers(0, 2 ** 32 - 1))
def test_drawn_space(config, seed):
    build_supernet(config, seed=0)

    alpha, beta = random_logits(config, np.random.default_rng(seed))
    arch = derive_architecture(alpha, beta, config)
    cost = madds_of_discrete(arch, config)
    # every count here stays below 2**24, so float32 holds it exactly
    hot_alpha = [[one_hot(v) for v in vecs] for vecs in alpha]
    hot_beta = [one_hot(v) for v in beta]
    assert derive_architecture(hot_alpha, hot_beta, config) == arch
    assert float(expected_cost(hot_alpha, hot_beta, build_madds_table(config)).data) == cost

    # at the default source every block is at its widest, where the table's
    # input-width convention is the deployed network's
    source = default_source_architecture(config)
    x = Tensor(np.zeros((1, 3, *config.input_resolution), dtype=np.float32))
    with count_madds() as counter:
        instantiate(source, seed=0).forward(x, training=False)
    assert counter.madds == madds_of_discrete(source, config)

    unmappable = any(spec.expansions[0] == 1 < spec.expansions[-1] for spec in config.blocks)
    if unmappable:
        with pytest.raises(ContractError, match="cannot map"):
            check_source_maps(config)
    else:
        check_source_maps(config)
