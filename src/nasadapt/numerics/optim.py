"""Optimizers used by the search schedule: momentum SGD and Adam."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import ContractError, ParameterError
from .tensor import DTYPE, Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9


def _check_common(lr: float, weight_decay: float):
    if lr <= 0:
        raise ParameterError(f"lr must be > 0, got {lr}")
    if weight_decay < 0:
        raise ParameterError(f"weight_decay must be >= 0, got {weight_decay}")


def _check_grads(params: list[Tensor]):
    """A step moves every parameter or none: check all gradients first."""
    if any(p.grad is None for p in params):
        raise ContractError("optimizer step with missing gradient")


class SGD:
    """SGD with momentum ``SGD_MOMENTUM``; weight decay enters as an additive
    L2 gradient term. The ``momentum`` keyword takes only that value; it stays
    for callers that still pass it."""

    def __init__(self, params: Iterable[Tensor], lr: float, *, weight_decay: float = 0.0,
                 momentum: float = SGD_MOMENTUM):
        _check_common(lr, weight_decay)
        if momentum != SGD_MOMENTUM:
            raise ParameterError(f"momentum is fixed at {SGD_MOMENTUM}, got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._buf: dict[int, np.ndarray] = {}

    def step(self):
        _check_grads(self.params)
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + DTYPE(self.weight_decay) * p.data
            buf = self._buf.get(id(p))
            if buf is None:
                buf = self._buf[id(p)] = g.astype(DTYPE, copy=True)
            else:
                buf *= DTYPE(SGD_MOMENTUM)
                buf += g
            p.data -= DTYPE(self.lr) * buf

    def zero_grad(self):
        for p in self.params:
            p.grad = None


class Adam:
    """Adam with bias correction and decoupled weight decay; moment decay
    rates ``ADAM_BETAS``, denominator offset ``ADAM_EPS``."""

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float = 0.0):
        _check_common(lr, weight_decay)
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self):
        _check_grads(self.params)
        self._t += 1
        beta1, beta2 = ADAM_BETAS
        b1, b2 = DTYPE(beta1), DTYPE(beta2)
        bc1 = 1.0 - beta1 ** self._t
        bc2 = 1.0 - beta2 ** self._t
        for p in self.params:
            g = p.grad
            m = self._m.setdefault(id(p), np.zeros_like(p.data))
            v = self._v.setdefault(id(p), np.zeros_like(p.data))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / DTYPE(bc1)
            vhat = v / DTYPE(bc2)
            if self.weight_decay:
                p.data -= DTYPE(self.lr * self.weight_decay) * p.data
            p.data -= DTYPE(self.lr) * mhat / (np.sqrt(vhat) + DTYPE(ADAM_EPS))

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = DTYPE(max_norm / total)
        for p in params:
            p.grad *= scale
    return total
