"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Paired-run checks use
majority votes over seeds; everything else is exact or tolerance-based.
"""

import json
from functools import partial

import numpy as np
import pytest

from nasadapt.costmodel import (
    build_madds_table,
    expected_cost,
    madds_of_discrete,
    stages_madds,
)
from nasadapt.derive import (
    DerivedBlock,
    DiscreteArchitecture,
    default_source_architecture,
    derive_architecture,
    instantiate,
)
from nasadapt.layers import ConvChain, TensorSource, mbconv_stages
from nasadapt.numerics import (
    Adam,
    Tensor,
    backward,
    batch_norm,
    clip_grad_norm,
    conv2d,
    count_madds,
    cross_entropy,
    matmul,
    relu6,
    softmax,
)
from nasadapt.paramap import ParameterBundle, map_to_derived, \
    verify_function_preservation
from nasadapt.searchloop import (
    ARCH_WEIGHT_DECAY,
    SearchSchedule,
    search,
)
from nasadapt.searchspace import (
    OpCandidate,
    channel_candidates,
    load_bundled_config,
    op_candidates,
    parse_config,
)
from nasadapt.supernet import build_masks, build_supernet, logit_lengths, \
    mixed_block_forward, mixed_op_forward
from nasadapt.toytask import DatasetSpec, ProxyHead, finetune, generate, \
    model_loss

from helpers import check_gradients, map_seeds, rand_tensor


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def np_softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def single_block_config(channels, n_max=2, kernels=(3,), expansions=(3,)):
    doc = {
        "v": 1,
        "input_resolution": [16, 16],
        "stem": {"conv_channels": 4, "mbconv_channels": 4},
        "blocks": [{"n_max": n_max, "stride": 1, "kernels": list(kernels),
                    "expansions": list(expansions), "channels": list(channels)}],
    }
    return parse_config(json.dumps(doc))


def test_relaxation_correctness():
    """Mixed op equals the explicit per-candidate weighted sum (20+ draws)."""
    cfg = single_block_config((4, 4, 1), n_max=2, kernels=(3, 5), expansions=(3,))
    net = build_supernet(cfg, seed=0)
    layer = net.blocks[0].layers[1]  # 2 mbconv candidates + skip
    rng = np.random.default_rng(0)
    worst_sum, worst_hot = 0.0, 0.0
    for draw in range(20):
        x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
        logits = rng.standard_normal(len(layer)).astype(np.float32) * 2.0
        mixed = mixed_op_forward(x, layer, Tensor(logits), training=False).data
        p = np_softmax(logits)
        oracle = sum(p[o] * layer[o](x, False, None).data
                     for o in range(len(layer)))
        worst_sum = max(worst_sum, float(np.abs(mixed - oracle).max()))
        chosen = draw % len(layer)
        hot = np.zeros(len(layer), dtype=np.float32)
        hot[chosen] = 50.0
        saturated = mixed_op_forward(x, layer, Tensor(hot), training=False).data
        alone = layer[chosen](x, False, None).data
        worst_hot = max(worst_hot, float(np.abs(saturated - alone).max()))
    report("relaxation-correctness", worst_sum <= 1e-5 and worst_hot <= 1e-4,
           f"weighted-sum dev {worst_sum:.2e}, one-hot dev {worst_hot:.2e}")


def test_shared_block_equivalence():
    """One masked pass equals the zero-padded per-candidate weighted sum."""
    worst = 0.0
    rng = np.random.default_rng(1)
    for channels in [(2, 8, 2), (4, 8, 4), (8, 8, 1)]:  # M = 4, 2, 1 (widths <= 8)
        cfg = single_block_config(channels, n_max=2)
        net = build_supernet(cfg, seed=2)
        block = net.blocks[0]
        for _ in range(4):
            x = Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32))
            alphas = [Tensor(rng.standard_normal(len(l)).astype(np.float32))
                      for l in block.layers]
            beta = rng.standard_normal(len(block.masks)).astype(np.float32)
            got = mixed_block_forward(x, block, alphas, Tensor(beta),
                                      training=False).data
            p = np_softmax(beta)
            oracle = np.zeros_like(got)
            for m in range(len(block.masks)):
                h = x
                for layer, logits in zip(block.layers, alphas):
                    h = mixed_op_forward(h, layer, logits, training=False)
                oracle += p[m] * (h.data * block.masks[m][None, :, None, None])
            worst = max(worst, float(np.abs(got - oracle).max()))
    report("shared-block-equivalence", worst <= 1e-5, f"max deviation {worst:.2e}")


def test_mask_properties():
    """Partition (exact), nesting, and beta-gradient decoupling."""
    rng = np.random.default_rng(2)
    partition_ok = True
    nested_ok = True
    for _ in range(10):
        cands = sorted(rng.choice(np.arange(1, 24), size=int(rng.integers(2, 6)),
                                  replace=False).tolist())
        non = build_masks(cands, "non_overlapping")
        partition_ok &= bool((non.sum(axis=0) == 1.0).all())
        over = build_masks(cands, "overlapping")
        nested_ok &= all((over[m] >= over[m - 1]).all() for m in range(1, len(cands)))
    decoupled = True
    cfg = load_bundled_config("desk3")
    for seed in range(3):
        net = build_supernet(cfg, seed=seed)
        x = np.random.default_rng(seed).random((2, 3, 32, 32), dtype=np.float32)
        feats = net.forward(Tensor(x), training=True, update_stats=False)
        backward((feats[-1] * feats[-1]).mean())
        for v in net.beta:
            if v.data.shape[0] >= 2:
                decoupled &= not np.allclose(v.grad, v.grad[0])
        for p in net.arch_params() + net.weight_params():
            p.grad = None
    report("mask-properties", partition_ok and nested_ok and decoupled,
           f"partition={partition_ok} nested={nested_ok} decoupled={decoupled}")


def test_cost_model_consistency():
    """One-hot == discrete (50 draws), cost gradients, instrumented oracle."""
    cfg = load_bundled_config("desk3")
    table = build_madds_table(cfg)
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    for _ in range(50):
        alphas, betas = [], []
        for spec in cfg.blocks:
            vecs = []
            for layer in range(spec.n_max):
                v = np.zeros(len(op_candidates(spec, layer)), dtype=np.float32)
                v[int(rng.integers(v.shape[0]))] = 80.0
                vecs.append(Tensor(v))
            alphas.append(vecs)
            b = np.zeros(len(channel_candidates(spec)), dtype=np.float32)
            b[int(rng.integers(b.shape[0]))] = 80.0
            betas.append(Tensor(b))
        arch = derive_architecture(alphas, betas, cfg)
        want = madds_of_discrete(arch, cfg)
        got = float(expected_cost(alphas, betas, table).data)
        worst_rel = max(worst_rel, abs(got - want) / want)
    one_hot_ok = worst_rel <= 1e-6

    # gradient of the expected cost against finite differences of a
    # float64 scalar-enumeration oracle
    def np_cost(alpha_arrays, beta_arrays):
        total = float(table.stem_cost)
        for i, costs in enumerate(table.blocks):
            p_b = np_softmax(np.asarray(beta_arrays[i], dtype=np.float64))
            per_c = np.zeros(len(channel_candidates(cfg.blocks[i])))
            for l, mat in enumerate(costs):
                per_c += mat @ np_softmax(np.asarray(alpha_arrays[i][l],
                                                     dtype=np.float64))
            total += float(p_b @ per_c)
        return total

    alphas = [[Tensor(rng.standard_normal(len(op_candidates(s, l))).astype(np.float32),
                      requires_grad=True) for l in range(s.n_max)] for s in cfg.blocks]
    betas = [Tensor(rng.standard_normal(len(channel_candidates(s))).astype(np.float32),
                    requires_grad=True) for s in cfg.blocks]
    backward(expected_cost(alphas, betas, table))
    grad_ok = True
    h = 1e-3
    for vecs, beta in zip(alphas, betas):
        for v in list(vecs) + [beta]:
            fd = np.zeros(v.data.shape[0])
            for j in range(v.data.shape[0]):
                orig = v.data[j]
                v.data[j] = orig + h
                fp = np_cost([[t.data for t in vs] for vs in alphas],
                             [b.data for b in betas])
                v.data[j] = orig - h
                fm = np_cost([[t.data for t in vs] for vs in alphas],
                             [b.data for b in betas])
                v.data[j] = orig
                fd[j] = (fp - fm) / (2 * h)
            rel = np.abs(v.grad - fd) / np.maximum(1.0, np.maximum(np.abs(v.grad),
                                                                   np.abs(fd)))
            grad_ok &= bool(rel.max() <= 1e-3)

    instr_ok = True
    for c_in, c_out, hh, ww, k, e, stride in [(8, 8, 4, 4, 3, 3, 1),
                                              (4, 6, 8, 8, 5, 6, 2),
                                              (3, 5, 6, 10, 7, 3, 1)]:
        op = ConvChain(mbconv_stages(c_in, c_out, k, e, stride), TensorSource(seed=0))
        with count_madds() as counter:
            op(Tensor(np.zeros((1, c_in, hh, ww), dtype=np.float32)), training=False)
        instr_ok &= counter.madds == stages_madds(mbconv_stages(c_in, c_out, k, e, stride),
                                                  hh, ww)
    report("cost-model-consistency", one_hot_ok and grad_ok and instr_ok,
           f"one-hot rel {worst_rel:.2e}, grads={grad_ok}, instrumented={instr_ok}")


def test_candidate_counts():
    """Bundled widest-space config: per-block channel candidate counts."""
    cfg = load_bundled_config("table1")
    counts = [len(channel_candidates(b)) for b in cfg.blocks]
    report("candidate-counts", counts == [7, 11, 13, 15, 33, 37] and max(counts) == 37,
           f"counts {counts}")


def test_bilevel_phase_separation():
    """Warm-up freezes alpha/beta; arch steps freeze w; runs bit-reproduce."""
    cfg = load_bundled_config("desk3")
    ds = generate(DatasetSpec(n_samples=96, seed=5))

    # warm-up leaves architecture logits bit-identical
    net = build_supernet(cfg, seed=5)
    arch_before = [v.data.copy() for v in net.arch_params()]
    schedule = SearchSchedule(total_epochs=3, warmup_epochs=3, seed=5)
    net, _ = search(net, ds, schedule)
    warmup_ok = all(old.tobytes() == new.data.tobytes()
                    for old, new in zip(arch_before, net.arch_params()))

    # arch-phase steps leave operation weights and BN state bit-identical
    table = build_madds_table(cfg)
    head = ProxyHead(net.final_channels, 4, seed=0)
    w_before = {n: t.data.copy() for n, t in net.named_weight_params()}
    s_before = {n: b.copy() for n, b in net.to_arrays().items() if n not in logit_lengths(cfg)}
    opt = Adam(net.arch_params(), lr=3e-4, weight_decay=ARCH_WEIGHT_DECAY)
    for step in range(6):
        feats = net.forward(Tensor(ds.images[step * 8:(step + 1) * 8]),
                            training=True, update_stats=False)
        loss = model_loss(feats[-1], head, ds.labels[step * 8:(step + 1) * 8]) + \
            expected_cost(net.alpha, net.beta, table) * np.float32(0.1 / 1e6)
        backward(loss)
        clip_grad_norm(net.arch_params(), 10.0)
        for p in net.weight_params() + head.params():
            p.grad = None
        opt.step()
        opt.zero_grad()
    w_ok = all(w_before[n].tobytes() == t.data.tobytes()
               for n, t in net.named_weight_params())
    s_ok = all(b.tobytes() == net.to_arrays()[n].tobytes() for n, b in s_before.items())

    # full 3+3 search is bit-reproducible
    def run():
        net = build_supernet(cfg, seed=6)
        schedule = SearchSchedule(total_epochs=6, warmup_epochs=3, seed=6)
        return search(net, ds, schedule)[1]

    h1, h2 = run(), run()
    hist_ok = h1.steps == h2.steps and h1.snapshots == h2.snapshots
    report("bilevel-phase-separation", warmup_ok and w_ok and s_ok and hist_ok,
           f"warmup={warmup_ok} w-frozen={w_ok} state-frozen={s_ok} history={hist_ok}")


def _cost_pressure_pair(seed):
    """(lambda=0.1 MAdds, lambda=0 MAdds) of the architectures one seed derives."""
    cfg = load_bundled_config("desk3")
    ds = generate(DatasetSpec(n_samples=96, seed=seed))
    madds = {}
    for lam in (0.0, 0.1):
        net = build_supernet(cfg, seed=seed)
        schedule = SearchSchedule(total_epochs=6, warmup_epochs=3, lam=lam,
                                  seed=seed)
        net, _ = search(net, ds, schedule)
        arch = derive_architecture(net.alpha, net.beta, cfg)
        madds[lam] = madds_of_discrete(arch, cfg)
    return madds[0.1], madds[0.0]


def test_cost_pressure_direction():
    """Over 5 paired seeds, lambda=0.1 derives no costlier than lambda=0."""
    pairs = map_seeds(_cost_pressure_pair, range(5))
    wins = sum(reg <= free for reg, free in pairs)
    report("cost-pressure-direction", wins >= 4, f"{wins}/5 pairs, (lam0.1, lam0)={pairs}")


def test_function_preservation():
    """Kernel embed and channel pad reproduce the source; round trip exact."""
    cfg = load_bundled_config("desk3")
    source_arch = default_source_architecture(cfg)
    src_net = instantiate(source_arch, seed=8)
    # settle BN stats on real data so preservation is checked at a non-trivial point
    ds = generate(DatasetSpec(n_samples=32, seed=8))
    src_net.forward(Tensor(ds.images), training=True)
    bundle = ParameterBundle(
        tensors={k2: v.copy() for k2, v in src_net.to_arrays().items()},
        arch=source_arch)

    def kernel_grown(kernel):
        return DiscreteArchitecture(
            input_resolution=source_arch.input_resolution, stem=source_arch.stem,
            blocks=tuple(
                DerivedBlock(channels=b.channels,
                             ops=tuple(OpCandidate(kernel=kernel, expansion=o.expansion,
                                                   stride=o.stride) for o in b.ops))
                if i < 2 else b
                for i, b in enumerate(source_arch.blocks)))

    # 3 -> 5 and 3 -> 7 embed, then crop back to 3
    round_trip_ok = True
    for kernel in (5, 7):
        grown, _ = map_to_derived(bundle, kernel_grown(kernel), eps=0.0)
        back, _ = map_to_derived(grown, source_arch, eps=0.0)
        round_trip_ok &= all(back.tensors[n].tobytes() == a.tobytes()
                              for n, a in bundle.tensors.items())

    kernel_target = kernel_grown(5)
    mapped, _ = map_to_derived(bundle, kernel_target, eps=0.0)
    dst = instantiate(kernel_target, arrays=mapped.tensors)
    rep_kernel = verify_function_preservation(src_net, dst, samples=16, tol=1e-5)

    narrow_blocks = tuple(DerivedBlock(channels=8 if i < 2 else 16, ops=b.ops)
                          for i, b in enumerate(source_arch.blocks))
    narrow_arch = DiscreteArchitecture(input_resolution=source_arch.input_resolution,
                                       stem=source_arch.stem, blocks=narrow_blocks)
    narrow_net = instantiate(narrow_arch, seed=9)
    narrow_net.forward(Tensor(ds.images), training=True)
    narrow_bundle = ParameterBundle(
        tensors={k2: v.copy() for k2, v in narrow_net.to_arrays().items()},
        arch=narrow_arch)
    padded, rep_map = map_to_derived(narrow_bundle, source_arch, eps=0.0)
    pad_rules_ok = {r for e in rep_map.entries.values() for r in e.rules} <= \
        {"direct", "channel-pad"}
    wide_net = instantiate(source_arch, arrays=padded.tensors)
    rep_pad = verify_function_preservation(narrow_net, wide_net, samples=16, tol=1e-5)

    ok = round_trip_ok and rep_kernel["passed"] and rep_pad["passed"] and pad_rules_ok
    report("function-preservation", ok,
           f"round-trip={round_trip_ok} kernel dev {rep_kernel['max_deviation']:.2e} "
           f"pad dev {rep_pad['max_deviation']:.2e}")


def _mapped_reach(seed, epochs):
    """First epoch at which fine-tuning from a mapped source reaches the loss that
    fine-tuning from scratch ends at after ``epochs`` epochs; ``epochs + 1`` if never."""
    cfg = load_bundled_config("desk3")
    source_arch = default_source_architecture(cfg)
    target = DiscreteArchitecture(
        input_resolution=source_arch.input_resolution, stem=source_arch.stem,
        blocks=tuple(
            DerivedBlock(channels=b.channels,
                         ops=tuple(OpCandidate(kernel=5, expansion=o.expansion,
                                               stride=o.stride) for o in b.ops))
            if i < 2 else b
            for i, b in enumerate(source_arch.blocks)))
    ds = generate(DatasetSpec(n_samples=192, seed=seed))
    source_bundle, _ = finetune(source_arch, None, ds, epochs=8, seed=seed)
    mapped_bundle, _ = map_to_derived(source_bundle, target, eps=1e-5, seed=seed)
    _, scratch_curve = finetune(target, None, ds, epochs=epochs, seed=seed + 100)
    _, mapped_curve = finetune(target, mapped_bundle, ds, epochs=epochs,
                               seed=seed + 100)
    scratch_final = scratch_curve[-1]
    return next((e + 1 for e, v in enumerate(mapped_curve) if v <= scratch_final),
                epochs + 1)


def test_pretrained_vs_scratch():
    """Mapped init reaches the scratch final loss in <= half the steps (4/5 seeds)."""
    epochs = 10
    reaches = map_seeds(partial(_mapped_reach, epochs=epochs), range(5))
    wins = sum(reach <= epochs // 2 for reach in reaches)
    details = [(reach, epochs) for reach in reaches]
    report("pretrained-vs-scratch", wins >= 4,
           f"{wins}/5 pairs, reach epochs {details}")


def test_autodiff_soundness():
    """Finite-difference checks for every differentiable primitive, 10 draws."""
    rng = np.random.default_rng(11)
    for i in range(10):
        x = rand_tensor(rng, (1, 2, 4, 4), scale=0.7)
        w = rand_tensor(rng, (2, 2, 3, 3), scale=0.5)
        check_gradients(lambda: conv2d(x, w, stride=1 + i % 2, padding=1).sum(),
                        [x, w], what=f"conv2d[{i}]")
    for i in range(10):
        vals = rng.uniform(-4, 10, size=8).astype(np.float32)
        vals = vals[(np.abs(vals) > 0.05) & (np.abs(vals - 6) > 0.05)]
        t = Tensor(vals, requires_grad=True)
        check_gradients(lambda: (relu6(t) * 0.7).sum(), [t], what=f"relu6[{i}]")
    for i in range(10):
        xb = rand_tensor(rng, (2, 2, 3, 3))
        gamma = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        mean = np.zeros(2, dtype=np.float32)
        var = np.ones(2, dtype=np.float32)
        # coefficient scale 0.5 keeps the float32 finite-difference noise
        # floor well under the 1e-3 tolerance
        coeff = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 0.5)
        training = i % 2 == 0
        check_gradients(
            lambda: (batch_norm(xb, gamma, beta, mean, var, training=training,
                                update_stats=False) * coeff).sum(),
            [xb, gamma, beta], what=f"batch_norm[{i}]")
    for i in range(10):
        t = rand_tensor(rng, (5,))
        coeff = Tensor(rng.standard_normal(5).astype(np.float32))
        check_gradients(lambda: (softmax(t) * coeff).sum(), [t], what=f"softmax[{i}]")
    for i in range(10):
        logits = rand_tensor(rng, (3, 4))
        labels = rng.integers(0, 4, size=3)
        check_gradients(lambda: cross_entropy(logits, labels), [logits],
                        what=f"cross_entropy[{i}]")
    for i in range(10):
        a = rand_tensor(rng, (3, 4), scale=0.8)
        b = rand_tensor(rng, (4,), scale=0.8)
        c = rand_tensor(rng, (3,), scale=0.8)
        check_gradients(lambda: ((matmul(a, b) + c) * c).mean(), [a, b, c],
                        what=f"matmul-add-mul[{i}]")
    for i in range(10):
        t = rand_tensor(rng, (2, 3, 2))
        check_gradients(lambda: (t.sum(axis=(0, 2)) * t.mean(axis=(0, 2))).sum(),
                        [t], what=f"reductions[{i}]")
    for i in range(10):
        t = rand_tensor(rng, (6,))
        check_gradients(lambda: t[i % 6] * t.reshape(2, 3).sum(), [t],
                        what=f"index-reshape[{i}]")
    report("autodiff-soundness", True, "all primitives within 1e-3")
