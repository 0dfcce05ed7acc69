"""Optimizers used by the search schedule and by fine-tuning: momentum SGD
and Adam. Each updates its group as one float32 vector, with the same
per-element float32 operations, in the same order, as a per-tensor update."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ContractError, ParameterError
from .tensor import DTYPE, Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9


def _flat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """One fresh float32 vector holding ``arrays`` in order (empty for none)."""
    return np.concatenate([np.zeros(0, DTYPE), *(a.ravel() for a in arrays)], dtype=DTYPE)


class _FlatGroup:
    """A parameter group as one float32 vector, ``_data``: each parameter's
    ``data`` becomes its view of it. A later group over the same tensors
    takes them over, and this one then no longer moves them."""

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float):
        if lr <= 0:
            raise ParameterError(f"lr must be > 0, got {lr}")
        if weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._data = _flat(p.data for p in self.params)
        offset = 0
        for p in self.params:
            size = p.data.size
            p.data = self._data[offset:offset + size].reshape(p.data.shape)
            offset += size

    def _grad(self) -> np.ndarray:
        """The gradients as one vector; a step calls it before anything moves."""
        if any(p.grad is None for p in self.params):
            raise ContractError("optimizer step with missing gradient")
        return _flat(p.grad for p in self.params)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class SGD(_FlatGroup):
    """SGD with momentum ``SGD_MOMENTUM``; weight decay enters as an additive
    L2 gradient term. The ``momentum`` keyword takes only that value; it stays
    for callers that still pass it."""

    def __init__(self, params: Iterable[Tensor], lr: float, *, weight_decay: float = 0.0,
                 momentum: float = SGD_MOMENTUM):
        super().__init__(params, lr, weight_decay)
        if momentum != SGD_MOMENTUM:
            raise ParameterError(f"momentum is fixed at {SGD_MOMENTUM}, got {momentum}")
        self._momentum: np.ndarray | None = None

    def step(self):
        g = self._grad()
        if self.weight_decay:
            g += DTYPE(self.weight_decay) * self._data
        if self._momentum is None:
            self._momentum = g
        else:
            self._momentum *= DTYPE(SGD_MOMENTUM)
            self._momentum += g
        self._data -= DTYPE(self.lr) * self._momentum


class Adam(_FlatGroup):
    """Adam with bias correction and decoupled weight decay; moment decay
    rates ``ADAM_BETAS``, denominator offset ``ADAM_EPS``."""

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._t = 0

    def step(self):
        g = self._grad()
        self._t += 1
        beta1, beta2 = ADAM_BETAS
        b1, b2 = DTYPE(beta1), DTYPE(beta2)
        self._m *= b1
        self._m += (1 - b1) * g
        self._v *= b2
        self._v += (1 - b2) * g * g
        mhat = self._m / DTYPE(1.0 - beta1 ** self._t)
        vhat = self._v / DTYPE(1.0 - beta2 ** self._t)
        if self.weight_decay:
            self._data -= DTYPE(self.lr * self.weight_decay) * self._data
        self._data -= DTYPE(self.lr) * mhat / (np.sqrt(vhat) + DTYPE(ADAM_EPS))


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = DTYPE(max_norm / total)
        for p in params:
            p.grad *= scale
    return total
