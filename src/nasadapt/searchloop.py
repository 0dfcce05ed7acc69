"""Warm-up-then-alternating optimization of the supernet.

Training data splits into two equal halves. During warm-up only the
operation parameters w train (SGD with momentum) on half A. Afterwards
every half-A batch's w step is followed by a half-B batch step on the
architecture logits alone (Adam), minimizing the model loss plus the
cost regularizer: a first-order alternation standing in for the nested
two-level problem. Phases are strictly separated by construction: each
phase turns ``requires_grad`` off on the idle parameter group, so a w step
computes no alpha/beta gradient and an arch step no w gradient. An arch
step also leaves the normalization running statistics alone; they only
update during w steps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .costmodel import (
    CostConfig,
    MAddsTable,
    build_madds_table,
    expected_cost,
    madds_of_discrete,
    total_loss,
)
from .derive import default_source_architecture
from .errors import ContractError, ParameterError
from .numerics import SGD, Adam, Tensor, backward, clip_grad_norm, no_grad
from .seeding import seed_for
from .supernet import Supernet
from .toytask import ProxyHead, SyntheticDataset, model_loss

GRAD_CLIP_NORM = 10.0

W_LR = 0.02
W_MOMENTUM = 0.9
W_WEIGHT_DECAY = 1e-4
ARCH_LR = 3e-4
ARCH_WEIGHT_DECAY = 1e-3


@dataclass
class SearchSchedule:
    total_epochs: int = 14
    warmup_epochs: int = 8
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ParameterError(
                f"need 0 <= warmup ({self.warmup_epochs}) <= total "
                f"({self.total_epochs})")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class DataSplit:
    train_a: np.ndarray
    train_b: np.ndarray


def split_data(dataset_size: int, seed: int) -> DataSplit:
    """Deterministic shuffled halves, disjoint, sizes within one of each other."""
    if dataset_size < 2:
        raise ParameterError(f"need at least 2 samples to split, got {dataset_size}")
    rng = np.random.Generator(np.random.PCG64(seed_for(seed, "split")))
    order = rng.permutation(dataset_size)
    half = dataset_size // 2
    return DataSplit(train_a=np.sort(order[:half]), train_b=np.sort(order[half:]))


@dataclass
class StepRecord:
    step: int
    epoch: int
    phase: str  # "w" or "arch"
    model_loss: float
    expected_cost: float  # normalized by the source network's MAdds
    total_loss: float


@dataclass
class EpochSnapshot:
    epoch: int
    alpha_argmax: list[list[int]]
    beta_argmax: list[int]


@dataclass
class SearchHistory:
    steps: list[StepRecord] = field(default_factory=list)
    snapshots: list[EpochSnapshot] = field(default_factory=list)


def history_to_csv(history: SearchHistory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "epoch", "phase", "model_loss", "expected_cost",
                         "total_loss"])
        for r in history.steps:
            writer.writerow([r.step, r.epoch, r.phase,
                             repr(r.model_loss), repr(r.expected_cost),
                             repr(r.total_loss)])


class _BatchCycle:
    """Deterministic reshuffled cycling over an index set."""

    def __init__(self, indices: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.indices = indices
        self.batch_size = batch_size
        self.rng = rng
        self._order: list[np.ndarray] = []

    def next(self) -> np.ndarray:
        if not self._order:
            perm = self.indices[self.rng.permutation(len(self.indices))]
            self._order = [perm[i:i + self.batch_size]
                           for i in range(0, len(perm), self.batch_size)]
        return self._order.pop(0)


def _check_finite(value: float, step: int, epoch: int, phase: str) -> None:
    if not np.isfinite(value):
        raise ContractError(
            f"non-finite loss {value} at step {step} (epoch {epoch}, phase {phase})")


def _snapshot(net: Supernet, epoch: int) -> EpochSnapshot:
    return EpochSnapshot(
        epoch=epoch,
        alpha_argmax=[[int(np.argmax(v.data)) for v in vecs] for vecs in net.alpha],
        beta_argmax=[int(np.argmax(v.data)) for v in net.beta],
    )


def _train_only(active: list[Tensor], idle: list[Tensor]) -> None:
    """Scope gradients to one parameter group: the idle one gets none computed."""
    for p in idle:
        p.requires_grad = False
    for p in active:
        p.requires_grad = True


def _step(net: Supernet, head: ProxyHead, dataset: SyntheticDataset, idx: np.ndarray,
          opt, params: list[Tensor], where: tuple[int, int, str],
          table: MAddsTable | None = None, cost_cfg: CostConfig | None = None,
          ) -> tuple[float, float, Tensor | None]:
    """One step of either phase: forward, loss, finite check, zero, backward,
    clip, step.

    Given a cost ``table`` (arch steps) the loss adds the cost regularizer
    and normalization statistics stay frozen. Returns the model loss, the
    loss, and the expected-cost tensor (None without a table).
    """
    feats = net.forward(Tensor(dataset.images[idx]), training=True,
                        update_stats=None if table is None else False)
    m_loss = model_loss(feats[-1], head, dataset.labels[idx])
    cost = None if table is None else expected_cost(net.alpha, net.beta, table)
    loss = m_loss if cost is None else total_loss(m_loss, cost, cost_cfg)
    value = loss.item()
    _check_finite(value, *where)
    opt.zero_grad()
    backward(loss)
    clip_grad_norm(params, GRAD_CLIP_NORM)
    opt.step()
    return m_loss.item(), value, cost


def search(net: Supernet, dataset: SyntheticDataset, schedule: SearchSchedule,
           cost_cfg: CostConfig, head: ProxyHead | None = None,
           ) -> tuple[Supernet, SearchHistory]:
    """Run the warm-up-then-alternating schedule; mutates net (and head)."""
    if cost_cfg.normalizer is None:
        cost_cfg = CostConfig(
            lam=cost_cfg.lam,
            normalizer=float(madds_of_discrete(
                default_source_architecture(net.config), net.config)))
    table = build_madds_table(net.config)
    if head is None:
        head = ProxyHead(net.final_channels, dataset.spec.n_classes,
                         seed=seed_for(schedule.seed, "head"))
    split = split_data(len(dataset), schedule.seed)
    rng = np.random.Generator(np.random.PCG64(seed_for(schedule.seed, "batches")))
    batches_a = _BatchCycle(split.train_a, schedule.batch_size, rng)
    batches_b = _BatchCycle(split.train_b, schedule.batch_size, rng)

    w_params = net.weight_params() + head.params()
    arch_params = net.arch_params()
    requires_grad_before = [p.requires_grad for p in w_params + arch_params]
    w_opt = SGD(w_params, lr=W_LR, momentum=W_MOMENTUM, weight_decay=W_WEIGHT_DECAY)
    arch_opt = Adam(arch_params, lr=ARCH_LR, weight_decay=ARCH_WEIGHT_DECAY)

    steps_per_epoch = max(1, len(split.train_a) // schedule.batch_size)
    history = SearchHistory()
    step = 0
    try:
        for epoch in range(1, schedule.total_epochs + 1):
            arch_phase = epoch > schedule.warmup_epochs
            for _ in range(steps_per_epoch):
                _train_only(w_params, arch_params)
                step += 1
                m_val, _, _ = _step(net, head, dataset, batches_a.next(), w_opt, w_params,
                                    (step, epoch, "w"))
                with no_grad():
                    c_val = float(expected_cost(net.alpha, net.beta, table).data) \
                        / cost_cfg.normalizer
                history.steps.append(StepRecord(
                    step=step, epoch=epoch, phase="w", model_loss=m_val,
                    expected_cost=c_val, total_loss=m_val + cost_cfg.lam * c_val))
                if not arch_phase:
                    continue
                _train_only(arch_params, w_params)
                step += 1
                m_val, t_val, cost = _step(net, head, dataset, batches_b.next(), arch_opt,
                                           arch_params, (step, epoch, "arch"),
                                           table, cost_cfg)
                history.steps.append(StepRecord(
                    step=step, epoch=epoch, phase="arch", model_loss=m_val,
                    expected_cost=float(cost.data) / cost_cfg.normalizer,
                    total_loss=t_val))
            history.snapshots.append(_snapshot(net, epoch))
    finally:
        for p, flag in zip(w_params + arch_params, requires_grad_before):
            p.requires_grad = flag
        w_opt.zero_grad()
        arch_opt.zero_grad()
    return net, history
