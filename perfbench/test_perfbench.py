"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import nasadapt.layers as layers  # noqa: E402
from nasadapt.numerics import SGD, Tensor, backward, count_madds  # noqa: E402
from nasadapt.searchspace import load_bundled_config  # noqa: E402
from nasadapt.supernet import Supernet, build_supernet  # noqa: E402
from nasadapt.toytask import ProxyHead, model_loss  # noqa: E402

from instrument import Instrumentation  # noqa: E402
from metrics import (  # noqa: E402
    ARCH_STEP_TAIL,
    TRAIN_STEP_TAIL,
    W_STEP_TAIL,
    end_to_end,
    per_layer,
    tail_percentile,
)
from workloads import WORKLOADS, PassResult  # noqa: E402


def _supernet_step(instrumented: bool):
    """One supernet weight step on desk3; returns (weights, instrumentation, counter)."""
    net = build_supernet(load_bundled_config("desk3"), seed=3)
    head = ProxyHead(net.final_channels, 4, seed=4)
    images = np.random.default_rng(5).random((2, 3, 32, 32), dtype=np.float32)
    params = net.weight_params() + head.params()
    opt = SGD(params, lr=0.02, momentum=0.9)
    instr = Instrumentation(full=True)
    with count_madds() as counter:
        if instrumented:
            with instr:
                loss = model_loss(net.forward(Tensor(images))[-1], head, np.array([0, 1]))
                backward(loss)
                opt.step()
        else:
            loss = model_loss(net.forward(Tensor(images))[-1], head, np.array([0, 1]))
            backward(loss)
            opt.step()
    return [p.data.copy() for p in params], instr, counter


def test_traced_conv_counts_match_count_madds():
    _, instr, counter = _supernet_step(instrumented=True)
    assert set(instr.conv_calls) == {"dense3", "pw", "dw3", "dw5"}
    assert sum(instr.conv_calls.values()) == counter.conv_calls
    assert sum(instr.conv_madds.values()) == counter.madds
    assert all(instr.bwd_s[f"tensor.conv.{k}"] > 0 for k in instr.conv_calls)


def test_tracing_leaves_results_bit_identical():
    plain, _, _ = _supernet_step(instrumented=False)
    traced, _, _ = _supernet_step(instrumented=True)
    assert all(np.array_equal(a, b) for a, b in zip(plain, traced))


def test_instrumentation_restores_every_patched_name():
    before = (layers.conv2d, Supernet.forward, SGD.step)
    with Instrumentation(full=True):
        assert layers.conv2d is not before[0]
    assert (layers.conv2d, Supernet.forward, SGD.step) == before


def test_stage_seconds_split_at_marks():
    instr = Instrumentation(full=False)
    instr.marks = [("data", 1.0), ("pretrain", 1.5), ("search", 4.0)]
    assert instr.stage_seconds(10.0) == {"data": 0.5, "pretrain": 2.5, "search": 6.0}


def test_tail_percentiles_match_default_desk3_step_counts():
    # 14 epochs of 128/8 w steps, 6 arch epochs, 8 + 10 fine-tune epochs of 256/16
    assert tail_percentile(14 * 16) == W_STEP_TAIL
    assert tail_percentile(6 * 16) == ARCH_STEP_TAIL
    assert tail_percentile(8 * 16 + 10 * 16) == TRAIN_STEP_TAIL


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    empty = PassResult(wall_s=1.0, phases={}, attempted=0, failed=0, conv_calls=0,
                       conv_madds=0, instr=Instrumentation(full=True))
    e2e = end_to_end([empty], [0.5], 100.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    for workload in WORKLOADS.values():
        layer = per_layer(workload, empty, 1.0)
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
            {k: unit for k, (_, unit) in layer.items()}
