"""Synthetic shape-classification task driving search and fine-tuning.

Each sample is one bright filled shape (class = shape type) drawn at one
of three scales at a random position over a dim noise background, with a
random bright color. Generation is fully determined by the dataset spec;
the PRNG (PCG64) and draw order are documented in docs/determinism.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .derive import DiscreteArchitecture, arch_to_json, instantiate
from .errors import ContractError, ParameterError
from .layers import trunc_normal
from .numerics import SGD, Tensor, backward, cross_entropy, matmul, no_grad
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE
from .paramap import ParameterBundle

SHAPE_NAMES = ("disk", "square", "plus", "cross", "ring", "diamond")
SCALE_FRACTIONS = (0.20, 0.28, 0.36)
BACKGROUND_AMPLITUDE = 0.15

FINETUNE_MOMENTUM = 0.9
FINETUNE_WEIGHT_DECAY = 5e-5


@dataclass(frozen=True)
class DatasetSpec:
    n_samples: int
    resolution: tuple[int, int] = (32, 32)
    n_classes: int = 4
    seed: int = 0


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
    if spec.n_classes < 2 or spec.n_classes > len(SHAPE_NAMES):
        raise ParameterError(
            f"n_classes must be in [2, {len(SHAPE_NAMES)}], got {spec.n_classes}")
    if spec.n_samples < spec.n_classes:
        raise ParameterError(
            f"need at least one sample per class, got {spec.n_samples} samples "
            f"for {spec.n_classes} classes")
    h, w = spec.resolution
    if min(h, w) < 16:
        raise ParameterError(f"resolution must be at least 16x16, got {h}x{w}")
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
    sidecar = {
        "n_samples": dataset.spec.n_samples,
        "resolution": list(dataset.spec.resolution),
        "n_classes": dataset.spec.n_classes,
        "seed": dataset.spec.seed,
    }
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_dataset(path) -> SyntheticDataset:
    path = Path(path)
    arrays = load_tensors(path)
    raw = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    spec = DatasetSpec(
        n_samples=raw["n_samples"],
        resolution=tuple(raw["resolution"]),
        n_classes=raw["n_classes"],
        seed=raw["seed"],
    )
    return SyntheticDataset(spec, arrays["images"],
                            arrays["labels"].astype(np.int64))


class ProxyHead:
    """Global-average-pool features into a linear classifier."""

    def __init__(self, in_channels: int, n_classes: int, seed: int = 0):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.in_channels = in_channels
        self.n_classes = n_classes
        self.weight = Tensor(trunc_normal(rng, (in_channels, n_classes), std=0.02),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(n_classes, dtype=DTYPE), requires_grad=True)

    def __call__(self, features: Tensor) -> Tensor:
        pooled = features.mean(axis=(2, 3))
        return matmul(pooled, self.weight) + self.bias

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def named_params(self, prefix: str = "head"):
        return [(f"{prefix}/weight", self.weight), (f"{prefix}/bias", self.bias)]


def model_loss(features: Tensor, head: ProxyHead, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of the classifier over final-block features."""
    return cross_entropy(head(features), labels)


@dataclass
class FinetuneConfig:
    lr: float = 0.05
    batch_size: int = 16


def _check_finite(loss_val: float, step: int, epoch: int) -> None:
    if not np.isfinite(loss_val):
        raise ContractError(
            f"non-finite loss {loss_val} at fine-tune step {step} (epoch {epoch})")


def finetune(arch: DiscreteArchitecture, params: ParameterBundle | None,
             dataset: SyntheticDataset, epochs: int,
             cfg: FinetuneConfig | None = None, seed: int = 0,
             ) -> tuple[ParameterBundle, list[float]]:
    """Train the architecture on the toy task; returns (params, per-epoch loss).

    ``params`` may supply backbone tensors (and optionally head tensors)
    from a mapping or an earlier run; anything missing starts fresh.
    """
    cfg = cfg or FinetuneConfig()
    net = instantiate(arch, seed=seed)
    head = ProxyHead(net.final_channels, dataset.spec.n_classes, seed=seed + 1)
    if params is not None:
        available = dict(params.tensors)
        net.load_arrays({k: v for k, v in available.items() if not k.startswith("head/")})
        if "head/weight" in available and \
                available["head/weight"].shape == head.weight.data.shape:
            head.weight.data[...] = available["head/weight"]
            head.bias.data[...] = available["head/bias"]
    curve: list[float] = []
    if epochs > 0:
        opt = SGD(net.params() + head.params(), lr=cfg.lr, momentum=FINETUNE_MOMENTUM,
                  weight_decay=FINETUNE_WEIGHT_DECAY)
        rng = np.random.Generator(np.random.PCG64(seed ^ 0x5F3759DF))
        n = len(dataset)
        step = 0
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                feats = net.forward(Tensor(dataset.images[idx]), training=True)
                loss = model_loss(feats[-1], head, dataset.labels[idx])
                val = loss.item()
                step += 1
                _check_finite(val, step, epoch)
                opt.zero_grad()
                backward(loss)
                opt.step()
                epoch_losses.append(val)
            curve.append(float(np.mean(epoch_losses)))
    arrays = net.to_arrays()
    arrays.update({name: t.data for name, t in head.named_params()})
    bundle = ParameterBundle(tensors={k: v.copy() for k, v in arrays.items()},
                             arch=json.loads(arch_to_json(arch)))
    return bundle, curve


def evaluate_accuracy(arch: DiscreteArchitecture, bundle: ParameterBundle,
                      dataset: SyntheticDataset, batch_size: int = 32,
                      seed: int = 0) -> float:
    """Eval-mode classification accuracy of a trained bundle on a dataset."""
    net = instantiate(arch, seed=seed)
    net.load_arrays({k: v for k, v in bundle.tensors.items()
                     if not k.startswith("head/")})
    head = ProxyHead(net.final_channels, dataset.spec.n_classes, seed=seed)
    head.weight.data[...] = bundle.tensors["head/weight"]
    head.bias.data[...] = bundle.tensors["head/bias"]
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start:start + batch_size]
            labels = dataset.labels[start:start + batch_size]
            feats = net.forward(Tensor(images), training=False)
            logits = head(feats[-1]).data
            correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(dataset)
