"""Synthetic shape-classification task driving search and fine-tuning.

Each sample is one bright filled shape (class = shape type) drawn at one
of three scales at a random position over a dim noise background, with a
random bright color. Generation is fully determined by the dataset spec;
the PRNG (PCG64) and draw order are documented in docs/determinism.md.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .derive import DiscreteArchitecture, instantiate
from .errors import ContractError, ParameterError
from .layers import TensorSource, trunc_normal, zeros
from .numerics import SGD, Tensor, backward, cross_entropy, matmul, no_grad
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE
from .paramap import ParameterBundle
from .searchspace import _known, _require, _resolution, read_json, write_json

SHAPE_NAMES = ("disk", "square", "plus", "cross", "ring", "diamond")
SCALE_FRACTIONS = (0.20, 0.28, 0.36)
BACKGROUND_AMPLITUDE = 0.15

FINETUNE_LR = 0.05
FINETUNE_BATCH_SIZE = 16
FINETUNE_WEIGHT_DECAY = 5e-5
EVAL_BATCH_SIZE = 32


@dataclass(frozen=True)
class DatasetSpec:
    n_samples: int
    resolution: tuple[int, int] = (32, 32)
    n_classes: int = 4
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_classes <= len(SHAPE_NAMES):
            raise ParameterError(
                f"n_classes must be in [2, {len(SHAPE_NAMES)}], got {self.n_classes}")
        if self.n_samples < self.n_classes:
            raise ParameterError(f"need at least one sample per class, got {self.n_samples} "
                                 f"samples for {self.n_classes} classes")
        if min(self.resolution) < 16:
            raise ParameterError("resolution must be at least 16x16, got "
                                 f"{self.resolution[0]}x{self.resolution[1]}")


class SyntheticDataset:
    def __init__(self, spec: DatasetSpec, images: np.ndarray, labels: np.ndarray):
        self.spec = spec
        self.images = images  # (N, 3, H, W) float32 in [0, 1]
        self.labels = labels  # (N,) int64

    def __len__(self) -> int:
        return self.spec.n_samples


def _shape_mask(kind: str, h: int, w: int, cy: float, cx: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    if kind == "disk":
        return dy * dy + dx * dx <= r * r
    if kind == "square":
        return (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if kind == "plus":
        arm = max(r / 3.0, 1.0)
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | \
               ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    if kind == "diamond":
        return np.abs(dy) + np.abs(dx) <= r
    if kind == "ring":
        d2 = dy * dy + dx * dx
        inner = max(r / 2.0, 1.0)
        return (d2 <= r * r) & (d2 >= inner * inner)
    if kind == "cross":
        arm = max(r / 3.0, 1.0)
        return (np.abs(dy - dx) <= arm) | (np.abs(dy + dx) <= arm)
    raise ParameterError(f"unknown shape kind '{kind}'")


def generate(spec: DatasetSpec) -> SyntheticDataset:
    """Deterministic class-balanced dataset; pixel values in [0, 1]."""
    h, w = spec.resolution
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    labels = np.arange(spec.n_samples, dtype=np.int64) % spec.n_classes
    rng.shuffle(labels)
    images = np.empty((spec.n_samples, 3, h, w), dtype=DTYPE)
    side = min(h, w)
    for i in range(spec.n_samples):
        background = rng.random((3, h, w)) * BACKGROUND_AMPLITUDE
        scale = SCALE_FRACTIONS[int(rng.integers(3))]
        r = max(side * scale, 2.0)
        margin = r + 1.0
        cy = rng.uniform(margin, h - 1 - margin)
        cx = rng.uniform(margin, w - 1 - margin)
        color = rng.uniform(0.55, 1.0, size=3)
        mask = _shape_mask(SHAPE_NAMES[labels[i]], h, w, cy, cx, r)
        img = background
        img = np.where(mask[None, :, :], color[:, None, None], img)
        images[i] = img.astype(DTYPE)
    return SyntheticDataset(spec, images, labels)


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """Tensor container (images, labels as float32) plus a JSON spec sidecar."""
    path = Path(path)
    save_tensors(path, {
        "images": dataset.images,
        "labels": dataset.labels.astype(DTYPE),
    })
    write_json(asdict(dataset.spec), path.with_suffix(".json"))


def _spec_from_doc(raw: dict) -> DatasetSpec:
    _known(raw, ("n_samples", "resolution", "n_classes", "seed"), "$")
    return DatasetSpec(n_samples=_require(raw, "n_samples", "$", int, "an integer"),
                       resolution=_resolution(raw, "resolution", "$"),
                       n_classes=_require(raw, "n_classes", "$", int, "an integer"),
                       seed=_require(raw, "seed", "$", int, "an integer"))


def load_dataset(path) -> SyntheticDataset:
    """Read a dataset container; its JSON sidecar must describe the arrays."""
    path = Path(path)
    arrays = load_tensors(path)
    spec = read_json(path.with_suffix(".json"), _spec_from_doc)
    for name, shape in (("images", (spec.n_samples, 3, *spec.resolution)),
                        ("labels", (spec.n_samples,))):
        got = arrays[name].shape if name in arrays else None
        if got != shape:
            raise ContractError(f"{path}: '{name}' has shape {got}, its sidecar implies {shape}")
    labels = arrays["labels"]
    bad = labels[(labels != np.round(labels)) | (labels < 0) | (labels >= spec.n_classes)]
    if bad.size:
        raise ContractError(f"{path}: 'labels' must be integers in [0, {spec.n_classes}), "
                            f"got {bad[0]}")
    return SyntheticDataset(spec, arrays["images"], labels.astype(np.int64))


class ProxyHead:
    """Global-average-pool features into a linear classifier."""

    def __init__(self, in_channels: int, n_classes: int, seed: int | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        source = TensorSource(seed, arrays).scope("head")
        self.weight = source.param("weight", (in_channels, n_classes), trunc_normal)
        self.bias = source.param("bias", (n_classes,), zeros)
        self._tensors = source.close()

    def __call__(self, features: Tensor) -> Tensor:
        pooled = features.mean(axis=(2, 3))
        return matmul(pooled, self.weight) + self.bias

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return self._tensors.arrays()


def model_loss(features: Tensor, head: ProxyHead, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of the classifier over final-block features."""
    return cross_entropy(head(features), labels)


def batch_stream(indices: np.ndarray, batch_size: int,
                 rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless batches of ``indices``, in passes: each pass is a fresh
    ``rng.permutation``, drawn when a batch is asked for and the previous
    pass is used up. A pass's last batch holds the remainder."""
    while True:
        order = indices[rng.permutation(len(indices))]
        for start in range(0, len(order), batch_size):
            yield order[start:start + batch_size]


def train_step(net, head: ProxyHead, dataset: SyntheticDataset, idx: np.ndarray, opt,
               where: str, clip: Callable[[list[Tensor]], float] | None = None,
               add_cost: Callable[[Tensor], Tensor] | None = None) -> tuple[float, float]:
    """One optimizer step on the samples ``idx``: forward, model loss, finite
    check, zero, backward, ``clip`` of ``opt``'s parameters if given, step.

    ``add_cost`` (a search's arch step) maps the model loss to the loss;
    such a step leaves running statistics frozen. A non-finite loss raises
    a ContractError naming ``where``. Returns the model loss and the loss.
    """
    feats = net.forward(Tensor(dataset.images[idx]), training=True,
                        update_stats=None if add_cost is None else False)
    m_loss = model_loss(feats[-1], head, dataset.labels[idx])
    loss = m_loss if add_cost is None else add_cost(m_loss)
    value = loss.item()
    if not np.isfinite(value):
        raise ContractError(f"non-finite loss {value} at {where}")
    opt.zero_grad()
    backward(loss)
    if clip is not None:
        clip(opt.params)
    opt.step()
    return m_loss.item(), value


def check_epochs(epochs: int, what: str = "epochs") -> None:
    """An epoch count is >= 0; 0 trains nothing."""
    if epochs < 0:
        raise ParameterError(f"{what} must be >= 0, got {epochs}")


def finetune(arch: DiscreteArchitecture, params: ParameterBundle | None,
             dataset: SyntheticDataset, epochs: int, seed: int = 0,
             ) -> tuple[ParameterBundle, list[float]]:
    """Train the architecture on the toy task; returns (params, per-epoch loss).

    ``params`` (a mapping or an earlier run), when given, supplies every
    backbone tensor; without it the network is drawn from ``seed``. The
    head comes from ``params`` when its ``head/weight`` fits the dataset,
    else it is drawn from ``seed + 1``.
    """
    check_epochs(epochs)
    tensors = params.tensors if params is not None else {}
    net = instantiate(arch, seed=seed) if params is None else instantiate(arch, arrays=tensors)
    head_shape = (net.final_channels, dataset.spec.n_classes)
    if "head/weight" in tensors and tensors["head/weight"].shape == head_shape:
        head = ProxyHead(*head_shape, arrays=tensors)
    else:
        head = ProxyHead(*head_shape, seed=seed + 1)
    curve: list[float] = []
    if epochs > 0:
        opt = SGD(net.params() + head.params(), lr=FINETUNE_LR, weight_decay=FINETUNE_WEIGHT_DECAY)
        batches = batch_stream(np.arange(len(dataset)), FINETUNE_BATCH_SIZE,
                               np.random.Generator(np.random.PCG64(seed ^ 0x5F3759DF)))
        steps_per_epoch = math.ceil(len(dataset) / FINETUNE_BATCH_SIZE)  # one pass
        step = 0
        for epoch in range(1, epochs + 1):
            epoch_losses = []
            for _ in range(steps_per_epoch):
                step += 1
                _, loss = train_step(net, head, dataset, next(batches), opt,
                                     f"fine-tune step {step} (epoch {epoch})")
                epoch_losses.append(loss)
            curve.append(float(np.mean(epoch_losses)))
    # nothing else holds these arrays once this returns, so the bundle takes them
    bundle = ParameterBundle(tensors=net.to_arrays() | head.to_arrays(), arch=arch)
    return bundle, curve


def evaluate_accuracy(arch: DiscreteArchitecture, bundle: ParameterBundle,
                      dataset: SyntheticDataset) -> float:
    """Eval-mode classification accuracy of a trained bundle on a dataset."""
    net = instantiate(arch, arrays=bundle.tensors)
    head = ProxyHead(net.final_channels, dataset.spec.n_classes, arrays=bundle.tensors)
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), EVAL_BATCH_SIZE):
            images = dataset.images[start:start + EVAL_BATCH_SIZE]
            labels = dataset.labels[start:start + EVAL_BATCH_SIZE]
            feats = net.forward(Tensor(images), training=False)
            logits = head(feats[-1]).data
            correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(dataset)
