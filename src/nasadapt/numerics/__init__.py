"""Minimal float32 tensor engine: autodiff primitives, optimizers, checkpoint IO."""

from .container import load_tensors, save_tensors
from .optim import SGD, Adam, clip_grad_norm
from .tensor import (
    DTYPE,
    Tensor,
    backward,
    batch_norm,
    conv2d,
    count_madds,
    cross_entropy,
    index_select,
    matmul,
    no_grad,
    relu6,
    reshape,
    softmax,
    tensor_mean,
    tensor_sum,
    trace,
)

__all__ = [
    "DTYPE",
    "Tensor",
    "backward",
    "batch_norm",
    "conv2d",
    "count_madds",
    "cross_entropy",
    "index_select",
    "matmul",
    "no_grad",
    "relu6",
    "reshape",
    "softmax",
    "tensor_mean",
    "tensor_sum",
    "trace",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_tensors",
    "load_tensors",
]
