"""Search loop: data split, schedules, phase separation, reproducibility."""

import numpy as np
import pytest

from nasadapt.costmodel import CostConfig
from nasadapt.errors import ContractError, ParameterError
from nasadapt.searchloop import (
    ARCH_LR,
    W_LR,
    SearchSchedule,
    _check_finite,
    history_to_csv,
    search,
    split_data,
)
from nasadapt.searchspace import load_bundled_config
from nasadapt.supernet import build_supernet
from nasadapt.toytask import DatasetSpec, generate


def tiny_search(seed=0, total=2, warmup=1, lam=0.1, n_samples=48, mask_mode="non_overlapping"):
    cfg = load_bundled_config("desk3")
    net = build_supernet(cfg, seed=seed, mask_mode=mask_mode)
    ds = generate(DatasetSpec(n_samples=n_samples, seed=seed))
    schedule = SearchSchedule(total_epochs=total, warmup_epochs=warmup,
                              batch_size=8, seed=seed)
    return search(net, ds, schedule, CostConfig(lam=lam))


class TestSplit:
    def test_even_split(self):
        split = split_data(10, seed=0)
        assert len(split.train_a) == len(split.train_b) == 5
        assert not set(split.train_a) & set(split.train_b)
        assert set(split.train_a) | set(split.train_b) == set(range(10))

    def test_odd_split(self):
        split = split_data(11, seed=0)
        assert sorted([len(split.train_a), len(split.train_b)]) == [5, 6]
        assert not set(split.train_a) & set(split.train_b)

    def test_deterministic_and_seed_sensitive(self):
        a1, a2 = split_data(32, seed=4), split_data(32, seed=4)
        np.testing.assert_array_equal(a1.train_a, a2.train_a)
        b = split_data(32, seed=5)
        assert not np.array_equal(a1.train_a, b.train_a)

    def test_too_small(self):
        with pytest.raises(ParameterError):
            split_data(1, seed=0)


class TestScheduleValidation:
    def test_warmup_bounds(self):
        with pytest.raises(ParameterError):
            SearchSchedule(total_epochs=2, warmup_epochs=3)

    def test_defaults_mirror_published_schedule(self):
        s = SearchSchedule()
        assert (s.total_epochs, s.warmup_epochs, s.batch_size) == (14, 8, 8)
        assert W_LR == pytest.approx(0.02)
        assert ARCH_LR == pytest.approx(3e-4)


class TestSearch:
    def test_warmup_only_keeps_arch_params(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=1)
        before = [v.data.copy() for v in net.arch_params()]
        ds = generate(DatasetSpec(n_samples=32, seed=1))
        schedule = SearchSchedule(total_epochs=2, warmup_epochs=2, batch_size=8, seed=1)
        net, history = search(net, ds, schedule, CostConfig(lam=0.1))
        for old, new in zip(before, net.arch_params()):
            assert old.tobytes() == new.data.tobytes()
        assert all(r.phase == "w" for r in history.steps)

    def test_phase_separation_bitwise(self):
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=2)
        ds = generate(DatasetSpec(n_samples=32, seed=2))
        schedule = SearchSchedule(total_epochs=2, warmup_epochs=1, batch_size=8, seed=2)
        w_names = [n for n, _ in net.named_weight_params()]
        state_names = [n for n, _ in net.named_state()]

        # wrap search manually: run warmup epoch, snapshot, then one arch epoch
        net, history = search(net, ds, schedule, CostConfig(lam=0.1))
        phases = {r.phase for r in history.steps}
        assert phases == {"w", "arch"}

    def test_arch_steps_leave_w_bit_identical(self):
        # zero w epochs of drift: warmup 0, and freeze w by observing a single epoch
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=3)
        ds = generate(DatasetSpec(n_samples=16, seed=3))
        from nasadapt.costmodel import build_madds_table, expected_cost
        from nasadapt.numerics import Adam, Tensor, backward, clip_grad_norm
        from nasadapt.searchloop import ARCH_WEIGHT_DECAY
        from nasadapt.toytask import ProxyHead, model_loss

        head = ProxyHead(net.final_channels, 4, seed=0)
        table = build_madds_table(cfg)
        w_before = {n: t.data.copy() for n, t in net.named_weight_params()}
        s_before = {n: b.copy() for n, b in net.named_state()}
        opt = Adam(net.arch_params(), lr=3e-4, weight_decay=ARCH_WEIGHT_DECAY)
        for _ in range(3):
            feats = net.forward(Tensor(ds.images[:8]), training=True, update_stats=False)
            loss = model_loss(feats[-1], head, ds.labels[:8]) + \
                expected_cost(net.alpha, net.beta, table) * np.float32(1e-9)
            backward(loss)
            clip_grad_norm(net.arch_params(), 10.0)
            for p in net.weight_params() + head.params():
                p.grad = None
            opt.step()
            opt.zero_grad()
        for n, t in net.named_weight_params():
            assert w_before[n].tobytes() == t.data.tobytes(), n
        for n, b in net.named_state():
            assert s_before[n].tobytes() == b.tobytes(), n
        changed = any(v.data.any() for v in net.arch_params())
        assert changed, "arch params should have moved"

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

    def test_nan_guard_names_step(self):
        with pytest.raises(ContractError, match=r"step 17 \(epoch 3, phase arch\)"):
            _check_finite(float("nan"), 17, 3, "arch")

    def test_snapshots_per_epoch(self):
        _, history = tiny_search(seed=11, total=2, warmup=1)
        assert [s.epoch for s in history.snapshots] == [1, 2]
        assert len(history.snapshots[0].beta_argmax) == 3

    def test_default_schedule_training_progress(self):
        """The stock 14-epoch/8-warm-up schedule reduces the model loss."""
        cfg = load_bundled_config("desk3")
        net = build_supernet(cfg, seed=12)
        ds = generate(DatasetSpec(n_samples=96, seed=12))
        net, history = search(net, ds, SearchSchedule(seed=12), CostConfig(lam=0.1))
        first = [r.model_loss for r in history.steps if r.epoch == 1]
        last = [r.model_loss for r in history.steps
                if r.epoch == 14 and r.phase == "w"]
        assert np.mean(last) < np.mean(first)

    def test_large_lambda_never_costlier(self):
        """100x the desk-default regularizer: majority of paired seeds derive
        architectures no costlier than unregularized runs."""
        from nasadapt.costmodel import madds_of_discrete
        from nasadapt.derive import derive_architecture

        cfg = load_bundled_config("desk3")
        wins = 0
        for seed in range(5):
            ds = generate(DatasetSpec(n_samples=64, seed=seed))
            madds = {}
            for lam in (0.0, 10.0):
                net = build_supernet(cfg, seed=seed)
                schedule = SearchSchedule(total_epochs=4, warmup_epochs=2,
                                          batch_size=8, seed=seed)
                net, _ = search(net, ds, schedule, CostConfig(lam=lam))
                madds[lam] = madds_of_discrete(derive_architecture(net.alpha, net.beta, cfg), cfg)
            wins += madds[10.0] <= madds[0.0]
        assert wins >= 3, f"only {wins}/5 paired seeds"
