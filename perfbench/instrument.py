"""Timing wrappers around nasadapt's public functions.

An :class:`Instrumentation` replaces module-level names and class methods
of the installed ``nasadapt`` package with wrappers and puts the originals
back when its ``with`` block ends. Every wrapper calls the original with
the same arguments and returns its result unchanged; only
``time.perf_counter`` readings are taken, so a traced pass computes the
same bytes as an untraced one. Nothing under ``src/`` is modified.

Two levels:

- light (``full=False``): stage boundaries of ``end_to_end`` and the
  duration of every training step, from a network's ``forward`` to the
  end of its optimizer's ``step``. A few thousand calls per pass; the
  end-to-end metrics come from passes at this level.
- full (``full=True``): light plus a span around each call into the
  layers below (tensor primitives forward and backward, the tape walk,
  optimizers, container IO, supernet, cost model, derivation, mapping,
  toy task). Per-layer metrics come from one pass at this level.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import nasadapt.cli as cli
import nasadapt.costmodel as costmodel
import nasadapt.layers as layers
import nasadapt.paramap as paramap
import nasadapt.searchloop as searchloop
import nasadapt.supernet as supernet
import nasadapt.toytask as toytask
from nasadapt.derive import DiscreteNetwork
from nasadapt.numerics import Tensor
from nasadapt.numerics.optim import SGD, Adam
from nasadapt.supernet import Supernet

_clock = time.perf_counter


def conv_kind(kernel: int, groups: int) -> str:
    """``pw`` for 1x1, ``dense<k>`` for ungrouped kxk, ``dw<k>`` for depthwise."""
    if groups == 1:
        return "pw" if kernel == 1 else f"dense{kernel}"
    return f"dw{kernel}"


class Instrumentation:
    """Patches nasadapt for one pass and accumulates what it observes."""

    def __init__(self, full: bool):
        self.full = full
        self.marks: list[tuple[str, float]] = []  # (stage entered, time)
        self.steps: dict[str, list[tuple[float, int]]] = {
            "w": [], "arch": [], "train": []}  # (seconds, batch size)
        self.span_s: dict[str, float] = defaultdict(float)
        self.span_calls: dict[str, int] = defaultdict(int)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.conv_calls: dict[str, int] = defaultdict(int)
        self.conv_madds: dict[str, int] = defaultdict(int)
        self.container_bytes = 0
        self.covered_s = 0.0  # time inside at least one span
        self._depth = 0
        self._stage: str | None = None
        self._step_start: float | None = None
        self._step_batch = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _install(self) -> None:
        full = self.full
        if full:
            self._patch(layers, "conv2d", self._conv)
            for owner, name, key in (
                    (layers, "batch_norm", "tensor.batch_norm"),
                    (layers, "relu6", "tensor.relu6"),
                    (supernet, "softmax", "tensor.softmax"),
                    (costmodel, "softmax", "tensor.softmax")):
                self._patch(owner, name, functools.partial(self._primitive, key))
            spans = (
                (searchloop, "backward", "tensor.backward"),
                (toytask, "backward", "tensor.backward"),
                (searchloop, "clip_grad_norm", "optim.clip"),
                (SGD, "step", "optim.sgd_step"),
                (Adam, "step", "optim.adam_step"),
                (Supernet, "forward", "supernet.forward"),
                (cli, "build_supernet", "supernet.build"),
                (searchloop, "build_madds_table", "costmodel.table"),
                (cli, "build_madds_table", "costmodel.table"),
                (searchloop, "expected_cost", "costmodel.expected_cost"),
                (cli, "expected_cost", "costmodel.expected_cost"),
                (cli, "derive_architecture", "derive.derive"),
                (cli, "instantiate", "derive.instantiate"),
                (toytask, "instantiate", "derive.instantiate"),
                (cli, "map_to_supernet", "paramap.map_to_supernet"),
                (cli, "map_to_derived", "paramap.map_to_derived"),
                (cli, "verify_function_preservation", "paramap.verify"),
                (cli, "generate", "toytask.generate"),
                (cli, "evaluate_accuracy", "toytask.evaluate"),
            )
            for owner, name, key in spans:
                self._patch(owner, name, functools.partial(self._span, key))
            for module in (supernet, paramap, toytask):
                self._patch(module, "save_tensors", self._save)
                self._patch(module, "load_tensors", self._load)

        # light level, wrapped around the spans above
        for name, stage in (("generate", "data"),
                            ("default_source_architecture", "pretrain"),
                            ("build_supernet", "supernet_map"),
                            ("search", "search"),
                            ("derive_architecture", "derive"),
                            ("map_to_derived", "remap"),
                            ("evaluate_accuracy", "evaluate")):
            self._patch(cli, name, functools.partial(self._mark, stage))
        self._patch(cli, "finetune", self._mark_finetune)
        self._patch(Supernet, "forward", self._step_begin)
        self._patch(DiscreteNetwork, "forward", self._step_begin)
        self._patch(SGD, "step", self._step_end)
        self._patch(Adam, "step", self._step_end)

    # -- wrappers -------------------------------------------------------

    def _timed(self, key: str, fn, *args, **kwargs):
        start = _clock()
        self._depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._depth -= 1
            elapsed = _clock() - start
            self.span_s[key] += elapsed
            self.span_calls[key] += 1
            if self._depth == 0:
                self.covered_s += elapsed

    def _time_backward(self, out, key: str) -> None:
        node = getattr(out, "node", None)
        if node is None:
            return
        original = node.backward_fn

        def backward_fn(gout):
            start = _clock()
            try:
                return original(gout)
            finally:
                self.bwd_s[key] += _clock() - start

        node.backward_fn = backward_fn

    def _span(self, key: str, fn):
        def wrapper(*args, **kwargs):
            return self._timed(key, fn, *args, **kwargs)
        return wrapper

    def _primitive(self, key: str, fn):
        def wrapper(*args, **kwargs):
            out = self._timed(key, fn, *args, **kwargs)
            self._time_backward(out, key)
            return out
        return wrapper

    def _conv(self, fn):
        def wrapper(x, weight, stride=1, padding=0, groups=1):
            w_shape = weight.data.shape if isinstance(weight, Tensor) else weight.shape
            kind = conv_kind(w_shape[-1], groups)
            key = f"tensor.conv.{kind}"
            out = self._timed(key, fn, x, weight, stride=stride, padding=padding,
                              groups=groups)
            # same count as count_madds(): N*k^2*(C_in/groups)*C_out*H_out*W_out
            self.conv_calls[kind] += 1
            self.conv_madds[kind] += out.data.size * w_shape[1] * w_shape[2] * w_shape[3]
            self._time_backward(out, key)
            return out
        return wrapper

    def _save(self, fn):
        def wrapper(path, named):
            self._timed("container.save", fn, path, named)
            self.container_bytes += os.path.getsize(path)
        return wrapper

    def _load(self, fn):
        def wrapper(path):
            self.container_bytes += os.path.getsize(path)
            return self._timed("container.load", fn, path)
        return wrapper

    def _mark(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            self._enter_stage(stage)
            return fn(*args, **kwargs)
        return wrapper

    def _mark_finetune(self, fn):
        # end_to_end calls finetune twice: pretraining, then the final fine-tune
        def wrapper(*args, **kwargs):
            if self._stage != "pretrain":
                self._enter_stage("finetune")
            return fn(*args, **kwargs)
        return wrapper

    def _enter_stage(self, stage: str) -> None:
        self._stage = stage
        self.marks.append((stage, _clock()))

    def _step_begin(self, fn):
        def wrapper(net, x, training=True, update_stats=None):
            if training:
                self._step_start = _clock()
                self._step_batch = len(x.data) if isinstance(x, Tensor) else len(x)
            return fn(net, x, training=training, update_stats=update_stats)
        return wrapper

    def _step_end(self, fn):
        def wrapper(opt):
            fn(opt)
            if self._step_start is not None:
                if isinstance(opt, Adam):
                    series = "arch"
                else:
                    series = "w" if self._stage == "search" else "train"
                self.steps[series].append((_clock() - self._step_start, self._step_batch))
                self._step_start = None
        return wrapper

    # -- derived quantities ---------------------------------------------

    def stage_seconds(self, end: float) -> dict[str, float]:
        """Seconds per stage: from each mark to the next one (or ``end``), summed."""
        out: dict[str, float] = {}
        bounds = self.marks + [("", end)]
        for (stage, start), (_, stop) in zip(bounds, bounds[1:]):
            out[stage] = out.get(stage, 0.0) + (stop - start)
        return out
