"""End-to-end metrics of untraced passes, per-layer metrics of a traced one.

Per-layer metrics are named after the nasadapt modules whose calls they time.
"""

from __future__ import annotations

import statistics

from workloads import WORKLOADS, PassResult, Workload

CONV_KINDS = ("dense3", "pw", "dw3", "dw5", "dw7")
PRIMITIVES = ("batch_norm", "relu6", "softmax")

# Tail percentile reported per step series: the highest one with at least ten
# samples beyond it for one default-settings desk3 pass (224 w steps, 96 arch
# steps, 128 pretrain + 160 fine-tune steps).
W_STEP_TAIL = 95
ARCH_STEP_TAIL = 89
TRAIN_STEP_TAIL = 96


def tail_percentile(samples: int) -> int:
    """Highest whole percentile that leaves at least ten samples above it."""
    return int(100 * (1 - 10 / samples)) if samples > 10 else 0


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[PassResult], setup_s: list[float],
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The gated metrics: medians over the run's untraced passes."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _steps_ms(result: PassResult, series: str) -> list[float]:
    return [seconds * 1e3 for seconds, _ in result.instr.steps[series]]


def per_layer(workload: Workload, traced: PassResult,
              untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass as name -> (value, unit).

    A layer the workload never calls reads 0.
    """
    ins = traced.instr
    span, calls = ins.span_s, ins.span_calls
    m: dict[str, tuple[float, str]] = {}
    for kind in CONV_KINDS:
        key = f"tensor.conv.{kind}"
        m[f"{key}.fwd_s"] = (span.get(key, 0.0), "s")
        m[f"{key}.bwd_s"] = (ins.bwd_s.get(key, 0.0), "s")
        m[f"{key}.calls"] = (ins.conv_calls.get(kind, 0), "count")
        m[f"{key}.madds"] = (ins.conv_madds.get(kind, 0), "count")
    for prim in PRIMITIVES:
        key = f"tensor.{prim}"
        m[f"{key}.fwd_s"] = (span.get(key, 0.0), "s")
        m[f"{key}.bwd_s"] = (ins.bwd_s.get(key, 0.0), "s")
    backward_s = span.get("tensor.backward", 0.0)
    m["tensor.backward.calls"] = (calls.get("tensor.backward", 0), "count")
    m["tensor.backward_s"] = (backward_s, "s")
    m["tensor.tape_self_s"] = (backward_s - sum(ins.bwd_s.values()), "s")

    for name, key in (("optim.sgd_step_s", "optim.sgd_step"),
                      ("optim.adam_step_s", "optim.adam_step"),
                      ("optim.clip_s", "optim.clip"),
                      ("container.save_s", "container.save"),
                      ("container.load_s", "container.load"),
                      ("supernet.build_s", "supernet.build"),
                      ("supernet.forward_s", "supernet.forward"),
                      ("costmodel.table_s", "costmodel.table"),
                      ("costmodel.expected_cost_s", "costmodel.expected_cost")):
        m[name] = (span.get(key, 0.0), "s")
    m["container.bytes"] = (ins.container_bytes, "bytes")
    m["costmodel.expected_cost.calls"] = (calls.get("costmodel.expected_cost", 0), "count")

    w_ms, arch_ms, train_ms = (_steps_ms(traced, s) for s in ("w", "arch", "train"))
    m["searchloop.w_step_ms.p50"] = (percentile(w_ms, 50), "ms")
    m[f"searchloop.w_step_ms.p{W_STEP_TAIL}"] = (percentile(w_ms, W_STEP_TAIL), "ms")
    m["searchloop.arch_step_ms.p50"] = (percentile(arch_ms, 50), "ms")
    m[f"searchloop.arch_step_ms.p{ARCH_STEP_TAIL}"] = (
        percentile(arch_ms, ARCH_STEP_TAIL), "ms")
    m["searchloop.w_steps"] = (len(w_ms), "count")
    m["searchloop.arch_steps"] = (len(arch_ms), "count")

    m["toytask.generate_s"] = (span.get("toytask.generate", 0.0), "s")
    m["toytask.train_step_ms.p50"] = (percentile(train_ms, 50), "ms")
    m[f"toytask.train_step_ms.p{TRAIN_STEP_TAIL}"] = (
        percentile(train_ms, TRAIN_STEP_TAIL), "ms")
    m["toytask.train_steps"] = (len(train_ms), "count")
    m["toytask.evaluate_s"] = (span.get("toytask.evaluate", 0.0), "s")

    for name, key in (("derive.derive_s", "derive.derive"),
                      ("derive.instantiate_s", "derive.instantiate"),
                      ("paramap.map_to_supernet_s", "paramap.map_to_supernet"),
                      ("paramap.map_to_derived_s", "paramap.map_to_derived"),
                      ("paramap.verify_s", "paramap.verify")):
        m[name] = (span.get(key, 0.0), "s")

    for other in WORKLOADS.values():
        for phase in other.phases:
            value = traced.phases.get(phase, 0.0) if other is workload else 0.0
            m[f"{other.phase_layer}.{phase}_s"] = (value, "s")
    m["cli.unattributed_s"] = (traced.wall_s - ins.covered_s, "s")

    m["work.conv_calls"] = (traced.conv_calls, "count")
    m["work.conv_madds"] = (traced.conv_madds, "count")
    m["work.derived_madds"] = (traced.derived_madds or 0, "count")
    m["trace.overhead_s"] = (traced.wall_s - untraced_wall_s, "s")
    return m
