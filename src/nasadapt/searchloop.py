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
update during w steps. Both phases run one step body: scope the gradients,
take the expected cost at the logits the step starts from, run
``toytask.train_step`` (the step fine-tuning runs, with gradients clipped
at norm ``GRAD_CLIP_NORM``), and log one ``StepRecord``.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .costmodel import (
    build_madds_table,
    expected_cost,
    madds_of_discrete,
    total_loss,
)
from .derive import default_source_architecture
from .errors import ParameterError
from .numerics import SGD, Adam, Tensor, clip_grad_norm
# not called here: perfbench/instrument.py patches this name (until ROADMAP item 2)
from .numerics import backward  # noqa: F401
from .seeding import seed_for
from .supernet import Supernet
from .toytask import ProxyHead, SyntheticDataset, batch_stream, train_step

GRAD_CLIP_NORM = 10.0
SEARCH_BATCH_SIZE = 8

W_LR = 0.02
W_WEIGHT_DECAY = 1e-4
ARCH_LR = 3e-4
ARCH_WEIGHT_DECAY = 1e-3


@dataclass
class SearchSchedule:
    """Epoch counts, the cost weight ``lam`` and the seed of one search.

    An arch step's loss adds ``lam`` times the expected cost divided by
    the default source architecture's MAdds, so ``lam`` is scale free.
    """

    total_epochs: int = 14
    warmup_epochs: int = 8
    lam: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ParameterError(
                f"need 0 <= warmup ({self.warmup_epochs}) <= total "
                f"({self.total_epochs})")
        # also rejects NaN, and values a float32 cannot hold (the loss multiplies by one)
        if not 0 <= self.lam <= float(np.finfo(np.float32).max):
            raise ParameterError(f"lambda must be finite and >= 0, got {self.lam}")


def split_data(dataset_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled halves A and B, disjoint, sizes within one of
    each other."""
    if dataset_size < 2:
        raise ParameterError(f"need at least 2 samples to split, got {dataset_size}")
    rng = np.random.Generator(np.random.PCG64(seed_for(seed, "split")))
    order = rng.permutation(dataset_size)
    half = dataset_size // 2
    return np.sort(order[:half]), np.sort(order[half:])


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


def write_csv(path, header: list[str], rows) -> None:
    """The one CSV dialect of the CLI's tables: ``csv.writer``'s, CRLF line ends,
    floats as ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def history_to_csv(history: SearchHistory, path) -> None:
    write_csv(path, [f.name for f in fields(StepRecord)], map(astuple, history.steps))


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


def search(net: Supernet, dataset: SyntheticDataset,
           schedule: SearchSchedule) -> tuple[Supernet, SearchHistory]:
    """Run the warm-up-then-alternating schedule under a proxy head drawn
    from the schedule's seed; mutates net."""
    normalizer = float(madds_of_discrete(default_source_architecture(net.config),
                                         net.config))
    table = build_madds_table(net.config)
    head = ProxyHead(net.final_channels, dataset.spec.n_classes,
                     seed=seed_for(schedule.seed, "head"))
    train_a, train_b = split_data(len(dataset), schedule.seed)
    rng = np.random.Generator(np.random.PCG64(seed_for(schedule.seed, "batches")))
    w_params = net.weight_params() + head.params()
    arch_params = net.arch_params()
    requires_grad_before = [p.requires_grad for p in w_params + arch_params]
    # phase -> (active group, idle group, batches, optimizer)
    phases = {
        "w": (w_params, arch_params, batch_stream(train_a, SEARCH_BATCH_SIZE, rng),
              SGD(w_params, lr=W_LR, weight_decay=W_WEIGHT_DECAY)),
        "arch": (arch_params, w_params, batch_stream(train_b, SEARCH_BATCH_SIZE, rng),
                 Adam(arch_params, lr=ARCH_LR, weight_decay=ARCH_WEIGHT_DECAY)),
    }
    clip = partial(clip_grad_norm, max_norm=GRAD_CLIP_NORM)

    steps_per_epoch = max(1, len(train_a) // SEARCH_BATCH_SIZE)
    history = SearchHistory()
    step = 0
    try:
        for epoch in range(1, schedule.total_epochs + 1):
            epoch_phases = ("w", "arch") if epoch > schedule.warmup_epochs else ("w",)
            for _ in range(steps_per_epoch):
                for phase in epoch_phases:
                    active, idle, batches, opt = phases[phase]
                    _train_only(active, idle)
                    step += 1
                    # at the logits this step starts from; recorded only for an arch step
                    cost = expected_cost(net.alpha, net.beta, table)
                    add_cost = None if phase == "w" else \
                        lambda m_loss: total_loss(m_loss, cost, schedule.lam, normalizer)
                    m_val, t_val = train_step(net, head, dataset, next(batches), opt,
                                              f"step {step} (epoch {epoch}, phase {phase})",
                                              clip, add_cost)
                    c_val = float(cost.data) / normalizer
                    history.steps.append(StepRecord(
                        step=step, epoch=epoch, phase=phase, model_loss=m_val,
                        expected_cost=c_val,
                        total_loss=(m_val + schedule.lam * c_val) if phase == "w" else t_val))
            history.snapshots.append(_snapshot(net, epoch))
    finally:
        for p, flag in zip(w_params + arch_params, requires_grad_before):
            p.requires_grad = flag
            p.grad = None
    return net, history
