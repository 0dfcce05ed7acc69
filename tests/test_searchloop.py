"""Search loop: data split, schedules, phase separation, reproducibility."""

from functools import partial

import numpy as np
import pytest

from nasadapt.costmodel import build_madds_table, expected_cost, madds_of_discrete, total_loss
from nasadapt.derive import default_source_architecture, derive_architecture
from nasadapt.errors import ContractError, ParameterError
from nasadapt.numerics import Adam, clip_grad_norm
from nasadapt.searchloop import (
    ARCH_LR,
    ARCH_WEIGHT_DECAY,
    GRAD_CLIP_NORM,
    SEARCH_BATCH_SIZE,
    W_LR,
    SearchSchedule,
    _train_only,
    history_to_csv,
    search,
    split_data,
)
from nasadapt.searchspace import load_bundled_config
from nasadapt.supernet import build_supernet, logit_lengths
from nasadapt.toytask import DatasetSpec, ProxyHead, finetune, generate, train_step

from helpers import map_seeds


def tiny_search(seed=0, total=2, warmup=1, lam=0.1, n_samples=48, mask_mode="non_overlapping"):
    cfg = load_bundled_config("desk3")
    net = build_supernet(cfg, seed=seed, mask_mode=mask_mode)
    ds = generate(DatasetSpec(n_samples=n_samples, seed=seed))
    schedule = SearchSchedule(total_epochs=total, warmup_epochs=warmup, lam=lam,
                              seed=seed)
    return search(net, ds, schedule)


def _large_lambda_pair(seed):
    """(lambda=10 MAdds, lambda=0 MAdds) of the architectures one seed derives."""
    cfg = load_bundled_config("desk3")
    ds = generate(DatasetSpec(n_samples=64, seed=seed))
    madds = {}
    for lam in (0.0, 10.0):
        net = build_supernet(cfg, seed=seed)
        schedule = SearchSchedule(total_epochs=4, warmup_epochs=2, lam=lam, seed=seed)
        net, _ = search(net, ds, schedule)
        madds[lam] = madds_of_discrete(derive_architecture(net.alpha, net.beta, cfg), cfg)
    return madds[10.0], madds[0.0]


class TestSplit:
    def test_even_split(self):
        train_a, train_b = split_data(10, seed=0)
        assert len(train_a) == len(train_b) == 5
        assert not set(train_a) & set(train_b)
        assert set(train_a) | set(train_b) == set(range(10))

    def test_odd_split(self):
        train_a, train_b = split_data(11, seed=0)
        assert sorted([len(train_a), len(train_b)]) == [5, 6]
        assert not set(train_a) & set(train_b)

    def test_deterministic_and_seed_sensitive(self):
        (a1, _), (a2, _) = split_data(32, seed=4), split_data(32, seed=4)
        np.testing.assert_array_equal(a1, a2)
        b, _ = split_data(32, seed=5)
        assert not np.array_equal(a1, b)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            split_data(1, seed=0)


class TestScheduleValidation:
    def test_warmup_bounds(self):
        with pytest.raises(ParameterError):
            SearchSchedule(total_epochs=2, warmup_epochs=3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            SearchSchedule(lam=-0.1)
        with pytest.raises(ParameterError):
            SearchSchedule(lam=float("nan"))

    def test_defaults_mirror_published_schedule(self):
        s = SearchSchedule()
        assert (s.total_epochs, s.warmup_epochs, s.lam, SEARCH_BATCH_SIZE) == (14, 8, 0.1, 8)
        assert W_LR == pytest.approx(0.02)
        assert ARCH_LR == pytest.approx(3e-4)


class TestSearch:
    def test_warmup_only_keeps_arch_params(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=1)
        before = [v.data.copy() for v in net.arch_params()]
        ds = generate(DatasetSpec(n_samples=32, seed=1))
        schedule = SearchSchedule(total_epochs=2, warmup_epochs=2, seed=1)
        net, history = search(net, ds, schedule)
        for old, new in zip(before, net.arch_params()):
            assert old.tobytes() == new.data.tobytes()
        assert all(r.phase == "w" for r in history.steps)

    def test_phase_separation_bitwise(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=2)
        ds = generate(DatasetSpec(n_samples=32, seed=2))
        schedule = SearchSchedule(total_epochs=2, warmup_epochs=1, seed=2)
        net, history = search(net, ds, schedule)
        phases = {r.phase for r in history.steps}
        assert phases == {"w", "arch"}

    def test_arch_steps_leave_w_bit_identical(self):
        # the arch step as search runs it: w scoped out, cost added, clipped
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=3)
        ds = generate(DatasetSpec(n_samples=16, seed=3))
        head = ProxyHead(net.final_channels, 4, seed=0)
        w_params, arch_params = net.weight_params() + head.params(), net.arch_params()
        logits = logit_lengths(cfg)
        # operation weights, the head and running statistics
        before = {n: a.copy() for n, a in (net.to_arrays() | head.to_arrays()).items()
                  if n not in logits}
        opt = Adam(arch_params, lr=ARCH_LR, weight_decay=ARCH_WEIGHT_DECAY)
        normalizer = madds_of_discrete(default_source_architecture(cfg), cfg)
        table = build_madds_table(cfg)
        _train_only(arch_params, w_params)
        clip = partial(clip_grad_norm, max_norm=GRAD_CLIP_NORM)
        for step in range(1, 4):
            cost = expected_cost(net.alpha, net.beta, table)
            train_step(net, head, ds, np.arange(8), opt, f"step {step}", clip,
                       lambda m_loss: total_loss(m_loss, cost, 0.1, normalizer))
        after = net.to_arrays() | head.to_arrays()
        for n, a in before.items():
            assert a.tobytes() == after[n].tobytes(), n
        assert all(after[n].any() for n in logits), "arch params should have moved"

    def test_w_steps_never_move_the_logits(self):
        # a w row's cost is taken before its step, the next arch row's after it:
        # equal costs mean the w step left the logits alone
        _, history = tiny_search(seed=4)
        rows = history.steps
        arch = [i for i, r in enumerate(rows) if r.phase == "arch"]
        assert arch
        for i in arch:
            assert rows[i - 1].phase == "w"
            assert rows[i].expected_cost == rows[i - 1].expected_cost, rows[i].step

    def test_fixed_seed_bit_identical_history(self):
        _, h1 = tiny_search(seed=7)
        _, h2 = tiny_search(seed=7)
        assert h1.steps == h2.steps
        assert h1.snapshots == h2.snapshots

    def test_total_loss_identity(self):
        _, history = tiny_search(seed=8, lam=0.3)
        for r in history.steps:
            assert r.total_loss == pytest.approx(
                r.model_loss + 0.3 * r.expected_cost, abs=1e-6)

    def test_training_progress(self):
        _, history = tiny_search(seed=9, total=3, warmup=2, n_samples=64)
        w_first = [r.model_loss for r in history.steps if r.epoch == 1]
        w_last = [r.model_loss for r in history.steps
                  if r.epoch == 3 and r.phase == "w"]
        assert np.mean(w_last) < np.mean(w_first)

    def test_history_csv(self, tmp_path):
        _, history = tiny_search(seed=10)
        path = tmp_path / "history.csv"
        history_to_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,phase,model_loss,expected_cost,total_loss"
        assert len(lines) == len(history.steps) + 1

    @pytest.mark.parametrize("run, where", [
        (lambda cfg, ds: search(build_supernet(cfg, seed=0), ds, SearchSchedule()),
         r"step 1 \(epoch 1, phase w\)"),
        (lambda cfg, ds: finetune(default_source_architecture(cfg), None, ds, epochs=1),
         r"fine-tune step 1 \(epoch 1\)"),
    ], ids=["search", "finetune"])
    def test_nan_guard_names_step(self, run, where):
        # a NaN pixel in every image makes the first batch's loss NaN
        ds = generate(DatasetSpec(n_samples=16, seed=0))
        ds.images[:, 0, 0, 0] = np.nan
        with pytest.raises(ContractError, match=f"non-finite loss nan at {where}$"):
            run(load_bundled_config("desk3"), ds)

    def test_snapshots_per_epoch(self):
        _, history = tiny_search(seed=11, total=2, warmup=1)
        assert [s.epoch for s in history.snapshots] == [1, 2]
        assert len(history.snapshots[0].beta_argmax) == 3

    def test_default_schedule_training_progress(self):
        """The stock 14-epoch/8-warm-up schedule reduces the model loss."""
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=12)
        ds = generate(DatasetSpec(n_samples=96, seed=12))
        net, history = search(net, ds, SearchSchedule(seed=12))
        first = [r.model_loss for r in history.steps if r.epoch == 1]
        last = [r.model_loss for r in history.steps
                if r.epoch == 14 and r.phase == "w"]
        assert np.mean(last) < np.mean(first)

    def test_large_lambda_never_costlier(self):
        """100x the desk-default regularizer: majority of paired seeds derive
        architectures no costlier than unregularized runs."""
        pairs = map_seeds(_large_lambda_pair, range(5))
        wins = sum(reg <= free for reg, free in pairs)
        assert wins >= 3, f"only {wins}/5 paired seeds"
