"""Collapse trained logits into a discrete architecture, and build it.

Per layer the operation with the highest logit wins; per block the
channel candidate with the highest logit wins. Ties break to the lowest
candidate index (the ordering in :mod:`nasadapt.searchspace` puts
cheaper kernels/expansions first and skip last). A winning skip deletes
its layer, so derived blocks can be shallower than n_max but never
empty: first layers carry no skip candidate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError, ParseError
from .layers import ConvChain, ConvStage, TensorSource, mbconv_stages, stem_stages
from .numerics import Tensor
from .searchspace import (
    OpCandidate,
    SearchSpaceConfig,
    StemSpec,
    _bounded,
    _known,
    _positive,
    _require,
    _resolution,
    channel_candidates,
    json_text,
    op_candidates,
    read_json,
    write_json,
)

ARCH_SCHEMA_VERSION = 1


# a derived operation is the candidate it was picked as; perfbench/workloads.py
# still builds ops by this name (until ROADMAP item 1)
DerivedOp = OpCandidate


@dataclass(frozen=True)
class DerivedBlock:
    channels: int
    ops: tuple[OpCandidate, ...]


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
        for layer in range(spec.n_max):
            vec = _logits(alpha[i][layer])
            if not np.isfinite(vec).all():
                raise ContractError(f"non-finite operation logits for block {i} layer {layer}")
            chosen = op_candidates(spec, layer)[int(np.argmax(vec))]
            if chosen.kind != "skip":
                ops.append(chosen)
        blocks.append(DerivedBlock(channels=channels, ops=tuple(ops)))
    return DiscreteArchitecture(input_resolution=config.input_resolution,
                                stem=config.stem, blocks=tuple(blocks))


def default_source_architecture(config: SearchSpaceConfig) -> DiscreteArchitecture:
    """Canonical full-size network inside the space: max width, full depth,
    smallest kernel, largest expansion. Serves as the mapping source and as
    the cost normalizer."""
    blocks = []
    for spec in config.blocks:
        # the first kernel's candidates come first, its largest expansion last
        ops = tuple(op_candidates(spec, layer)[len(spec.expansions) - 1]
                    for layer in range(spec.n_max))
        blocks.append(DerivedBlock(channels=channel_candidates(spec)[-1], ops=ops))
    return DiscreteArchitecture(input_resolution=config.input_resolution,
                                stem=config.stem, blocks=tuple(blocks))


def arch_to_doc(arch: DiscreteArchitecture) -> dict:
    return {
        "v": ARCH_SCHEMA_VERSION,
        "input_resolution": list(arch.input_resolution),
        "stem": asdict(arch.stem),
        "blocks": [{"channels": b.channels,
                    "ops": [asdict(op) for op in b.ops]}
                   for b in arch.blocks],
    }


def arch_to_json(arch: DiscreteArchitecture) -> str:
    return json_text(arch_to_doc(arch))


def arch_from_doc(raw: dict) -> DiscreteArchitecture:
    """Validate a decoded architecture document (docs/arch.schema.json)."""
    _bounded(raw, "v", "$", lambda v: v == ARCH_SCHEMA_VERSION, f"version {ARCH_SCHEMA_VERSION}")
    _known(raw, ("v", "input_resolution", "stem", "blocks"), "$")
    resolution = _resolution(raw, "input_resolution", "$")
    stem_raw = _require(raw, "stem", "$", dict, "an object")
    _known(stem_raw, ("conv_channels", "mbconv_channels"), "$.stem")
    stem = StemSpec(
        conv_channels=_positive(stem_raw, "conv_channels", "$.stem"),
        mbconv_channels=_positive(stem_raw, "mbconv_channels", "$.stem"),
    )
    blocks_raw = _require(raw, "blocks", "$", list, "a list")
    if not blocks_raw:
        raise ParseError("$.blocks", "at least one block is required")
    blocks = []
    for i, braw in enumerate(blocks_raw):
        path = f"$.blocks[{i}]"
        channels = _positive(braw, "channels", path)
        _known(braw, ("channels", "ops"), path)
        ops_raw = _require(braw, "ops", path, list, "a list")
        if not ops_raw:
            raise ParseError(f"{path}.ops", "a block must retain at least one operation")
        ops = []
        for j, oraw in enumerate(ops_raw):
            opath = f"{path}.ops[{j}]"
            kind = _require(oraw, "kind", opath, str, "a string")
            if kind != "mbconv":
                raise ParseError(f"{opath}.kind", f"unknown operation kind '{kind}'")
            _known(oraw, ("kind", "kernel", "expansion", "stride"), opath)
            ops.append(OpCandidate(
                kernel=_bounded(oraw, "kernel", opath, lambda v: v >= 1 and v % 2 == 1,
                                "odd and >= 1"),
                expansion=_positive(oraw, "expansion", opath),
                stride=_bounded(oraw, "stride", opath, lambda v: v in (1, 2), "1 or 2"),
            ))
        blocks.append(DerivedBlock(channels=channels, ops=tuple(ops)))
    return DiscreteArchitecture(input_resolution=resolution, stem=stem, blocks=tuple(blocks))


def save_arch(arch: DiscreteArchitecture, path) -> None:
    write_json(arch_to_doc(arch), path)


def load_arch(path) -> DiscreteArchitecture:
    return read_json(path, arch_from_doc)


def arch_layers(arch: DiscreteArchitecture) -> list[list[tuple[str, tuple[ConvStage, ...]]]]:
    """(tensor prefix, stage list) of every layer of every block; a block's
    first layer reads the previous block's width (the stem's for block 0)."""
    blocks = []
    c_in = arch.stem.mbconv_channels
    for i, block in enumerate(arch.blocks):
        blocks.append([
            (f"block{i}/layer{j}",
             mbconv_stages(c_in if j == 0 else block.channels, block.channels, op.kernel,
                           op.expansion, op.stride))
            for j, op in enumerate(block.ops)])
        c_in = block.channels
    return blocks


class DiscreteNetwork:
    """A concrete backbone instantiated from a derived architecture."""

    def __init__(self, arch: DiscreteArchitecture, source: TensorSource):
        self.arch = arch
        self.stem = ConvChain(stem_stages(arch.stem), source.scope("stem"))
        self.blocks = [[ConvChain(stages, source.scope(prefix)) for prefix, stages in layers]
                       for layers in arch_layers(arch)]
        self.final_channels = arch.blocks[-1].channels
        self._tensors = source.close()

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

    def params(self) -> list[Tensor]:
        return list(self._tensors.params.values())

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Parameters, then running statistics, by name."""
        return self._tensors.arrays()


def instantiate(arch: DiscreteArchitecture, seed: int | None = None,
                arrays: dict[str, np.ndarray] | None = None) -> DiscreteNetwork:
    """A runnable network for a derived architecture, its tensors drawn from
    ``seed`` or copied from ``arrays`` (extra names, e.g. ``head/*``, are
    ignored)."""
    return DiscreteNetwork(arch, TensorSource(seed, arrays))
