"""Collapse trained logits into a discrete architecture, and build it.

Per layer the operation with the highest logit wins; per block the
channel candidate with the highest logit wins. Ties break to the lowest
candidate index (the ordering in :mod:`nasadapt.searchspace` puts
cheaper kernels/expansions first and skip last). A winning skip deletes
its layer, so derived blocks can be shallower than n_max but never
empty: first layers carry no skip candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError
from .layers import MBConv, Stem, load_named_arrays
from .numerics import Tensor
from .searchspace import (
    SearchSpaceConfig,
    StemSpec,
    channel_candidates,
    op_candidates,
)

ARCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DerivedOp:
    kernel: int
    expansion: int
    stride: int


@dataclass(frozen=True)
class DerivedBlock:
    channels: int
    ops: tuple[DerivedOp, ...]


@dataclass(frozen=True)
class DiscreteArchitecture:
    input_resolution: tuple[int, int]
    stem: StemSpec
    blocks: tuple[DerivedBlock, ...]


def _logits(vec) -> np.ndarray:
    return np.asarray(getattr(vec, "data", vec))


def derive_architecture(alpha, beta, config: SearchSpaceConfig) -> DiscreteArchitecture:
    """Argmax over alpha (per layer) and beta (per block); skips drop layers."""
    blocks = []
    for i, spec in enumerate(config.blocks):
        beta_vec = _logits(beta[i])
        if not np.isfinite(beta_vec).all():
            raise ContractError(f"non-finite channel logits for block {i}")
        channels = channel_candidates(spec)[int(np.argmax(beta_vec))]
        ops = []
        for layer in range(1, spec.n_max + 1):
            vec = _logits(alpha[i][layer - 1])
            if not np.isfinite(vec).all():
                raise ContractError(f"non-finite operation logits for block {i} layer {layer}")
            chosen = op_candidates(spec, layer)[int(np.argmax(vec))]
            if chosen.kind == "skip":
                continue
            stride = spec.stride if layer == 1 else 1
            ops.append(DerivedOp(kernel=chosen.kernel, expansion=chosen.expansion,
                                 stride=stride))
        blocks.append(DerivedBlock(channels=channels, ops=tuple(ops)))
    return DiscreteArchitecture(input_resolution=config.input_resolution,
                                stem=config.stem, blocks=tuple(blocks))


def default_source_architecture(config: SearchSpaceConfig) -> DiscreteArchitecture:
    """Canonical full-size network inside the space: max width, full depth,
    smallest kernel, largest expansion. Serves as the mapping source and as
    the cost normalizer."""
    blocks = []
    for spec in config.blocks:
        kernel = spec.kernels[0]
        expansion = spec.expansions[-1]
        ops = tuple(
            DerivedOp(kernel=kernel, expansion=expansion,
                      stride=spec.stride if layer == 1 else 1)
            for layer in range(1, spec.n_max + 1)
        )
        blocks.append(DerivedBlock(channels=channel_candidates(spec)[-1], ops=ops))
    return DiscreteArchitecture(input_resolution=config.input_resolution,
                                stem=config.stem, blocks=tuple(blocks))


def arch_to_json(arch: DiscreteArchitecture) -> str:
    doc = {
        "v": ARCH_SCHEMA_VERSION,
        "input_resolution": list(arch.input_resolution),
        "stem": {
            "conv_channels": arch.stem.conv_channels,
            "mbconv_channels": arch.stem.mbconv_channels,
        },
        "blocks": [
            {
                "channels": b.channels,
                "ops": [
                    {"kind": "mbconv", "kernel": op.kernel,
                     "expansion": op.expansion, "stride": op.stride}
                    for op in b.ops
                ],
            }
            for b in arch.blocks
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _field(obj, key, path, types, what):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{path}.{key}", f"expected {what}, got {value!r}")
    return value


def _bounded(obj, key, path, ok, what):
    """An integer field that must satisfy ``ok``; ``what`` names the bound."""
    value = _field(obj, key, path, int, "an integer")
    if not ok(value):
        raise ParseError(f"{path}.{key}", f"must be {what}, got {value}")
    return value


def _positive(obj, key, path):
    return _bounded(obj, key, path, lambda v: v >= 1, ">= 1")


def arch_from_json(text: str) -> DiscreteArchitecture:
    """Parse and validate an architecture document (docs/arch.schema.json)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("$", "expected a JSON object")
    if _field(raw, "v", "$", int, "an integer") != ARCH_SCHEMA_VERSION:
        raise ParseError("$.v", f"unsupported architecture schema version {raw['v']}")
    res = _field(raw, "input_resolution", "$", list, "a list")
    if len(res) != 2 or not all(isinstance(v, int) and v > 0 for v in res):
        raise ParseError("$.input_resolution", f"expected [H, W] positives, got {res}")
    stem_raw = _field(raw, "stem", "$", dict, "an object")
    stem = StemSpec(
        conv_channels=_positive(stem_raw, "conv_channels", "$.stem"),
        mbconv_channels=_positive(stem_raw, "mbconv_channels", "$.stem"),
    )
    blocks_raw = _field(raw, "blocks", "$", list, "a list")
    if not blocks_raw:
        raise ParseError("$.blocks", "at least one block is required")
    blocks = []
    for i, braw in enumerate(blocks_raw):
        path = f"blocks[{i}]"
        channels = _positive(braw, "channels", path)
        ops_raw = _field(braw, "ops", path, list, "a list")
        if not ops_raw:
            raise ParseError(f"{path}.ops", "a block must retain at least one operation")
        ops = []
        for j, oraw in enumerate(ops_raw):
            opath = f"{path}.ops[{j}]"
            kind = _field(oraw, "kind", opath, str, "a string")
            if kind != "mbconv":
                raise ParseError(f"{opath}.kind", f"unknown operation kind '{kind}'")
            ops.append(DerivedOp(
                kernel=_bounded(oraw, "kernel", opath, lambda v: v >= 1 and v % 2 == 1,
                                "odd and >= 1"),
                expansion=_positive(oraw, "expansion", opath),
                stride=_bounded(oraw, "stride", opath, lambda v: v in (1, 2), "1 or 2"),
            ))
        blocks.append(DerivedBlock(channels=channels, ops=tuple(ops)))
    return DiscreteArchitecture(input_resolution=(res[0], res[1]), stem=stem,
                                blocks=tuple(blocks))


def save_arch(arch: DiscreteArchitecture, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(arch_to_json(arch))
        f.write("\n")


def load_arch(path) -> DiscreteArchitecture:
    with open(path, "r", encoding="utf-8") as f:
        return arch_from_json(f.read())


class DiscreteNetwork:
    """A concrete backbone instantiated from a derived architecture."""

    def __init__(self, arch: DiscreteArchitecture, seed: int):
        self.arch = arch
        rng = np.random.Generator(np.random.PCG64(seed))
        self.stem = Stem(arch.stem.conv_channels, arch.stem.mbconv_channels, rng)
        self.blocks: list[list[MBConv]] = []
        c_in = arch.stem.mbconv_channels
        for block in arch.blocks:
            ops = []
            for j, op in enumerate(block.ops):
                ops.append(MBConv(c_in if j == 0 else block.channels, block.channels,
                                  op.kernel, op.expansion, op.stride, rng))
            self.blocks.append(ops)
            c_in = block.channels
        self.final_channels = c_in

    def forward(self, x, training: bool = True,
                update_stats: bool | None = None) -> list[Tensor]:
        h = x if isinstance(x, Tensor) else Tensor(x)
        h = self.stem(h, training, update_stats)
        feats = []
        for ops in self.blocks:
            for op in ops:
                h = op(h, training, update_stats)
            feats.append(h)
        return feats

    def named_params(self):
        out = self.stem.named_params("stem")
        for i, ops in enumerate(self.blocks):
            for l, op in enumerate(ops):
                out.extend(op.named_params(f"block{i}/layer{l}"))
        return out

    def named_state(self):
        out = self.stem.named_state("stem")
        for i, ops in enumerate(self.blocks):
            for l, op in enumerate(ops):
                out.extend(op.named_state(f"block{i}/layer{l}"))
        return out

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: t.data for name, t in self.named_params()}
        arrays.update({name: buf for name, buf in self.named_state()})
        return arrays

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        load_named_arrays(self.named_params(), self.named_state(), arrays)


def instantiate(arch: DiscreteArchitecture, seed: int) -> DiscreteNetwork:
    """Freshly initialized runnable network for a derived architecture."""
    return DiscreteNetwork(arch, seed)
