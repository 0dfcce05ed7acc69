"""Search-space description: stem plus a chain of searchable blocks.

A JSON document declares, per block, the maximum operation count, the
first-operation stride, the kernel/expansion candidate sets, and an
inclusive arithmetic channel range ``(min, max, step)``. Candidate
enumeration is deterministic and sorted so that architecture-logit
indices stay stable across runs and checkpoints: channel candidates
ascending, operation candidates in (kernel, expansion) lexical order
with the skip connection last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import ParameterError, ParseError

SCHEMA_VERSION = 1
DEFAULT_STEM_CONV_CHANNELS = 32
DEFAULT_STEM_MBCONV_CHANNELS = 16


@dataclass(frozen=True)
class OpCandidate:
    """One searchable operation: an inverted-residual conv or a skip."""

    kind: str  # "mbconv" or "skip"
    kernel: int | None = None
    expansion: int | None = None


SKIP = OpCandidate(kind="skip")


@dataclass(frozen=True)
class BlockSpec:
    """One searchable block: up to n_max operations at a searched width."""

    index: int
    n_max: int
    stride: int
    kernels: tuple[int, ...]
    expansions: tuple[int, ...]
    channel_range: tuple[int, int, int]  # (min, max, step), inclusive


@dataclass(frozen=True)
class StemSpec:
    """Fixed entry layers: a strided conv and one k3/e1 inverted residual."""

    conv_channels: int = DEFAULT_STEM_CONV_CHANNELS
    mbconv_channels: int = DEFAULT_STEM_MBCONV_CHANNELS


@dataclass(frozen=True)
class SearchSpaceConfig:
    input_resolution: tuple[int, int]
    stem: StemSpec = field(default_factory=StemSpec)
    blocks: tuple[BlockSpec, ...] = ()

    def block_input_channels(self, index: int) -> int:
        """Full-width input of a block: the previous block's maximum candidate."""
        if index == 0:
            return self.stem.mbconv_channels
        return channel_candidates(self.blocks[index - 1])[-1]


def channel_candidates(spec: BlockSpec) -> list[int]:
    """Inclusive arithmetic sequence min, min+step, ..., max."""
    lo, hi, step = spec.channel_range
    return list(range(lo, hi + 1, step))


def op_candidates(spec: BlockSpec, layer: int) -> list[OpCandidate]:
    """Operation candidates of layer ``layer`` (1-based).

    The first layer of a block offers every kernel/expansion combination;
    later layers add the skip connection, so a block can shrink below
    n_max operations but never to zero.
    """
    if layer < 1 or layer > spec.n_max:
        raise ParameterError(
            f"layer must be in [1, {spec.n_max}] for block {spec.index}, got {layer}")
    cands = [OpCandidate(kind="mbconv", kernel=k, expansion=e)
             for k in spec.kernels for e in spec.expansions]
    if layer > 1:
        cands.append(SKIP)
    return cands


def _require(obj, key, path, types, type_name):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{path}.{key}", f"expected {type_name}, got {value!r}")
    return value


def _int_list(obj, key, path):
    value = _require(obj, key, path, list, "a list of integers")
    if not value or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ParseError(f"{path}.{key}", f"expected a non-empty list of integers, got {value!r}")
    return value


def _parse_block(raw, index: int) -> BlockSpec:
    path = f"blocks[{index}]"
    n_max = _require(raw, "n_max", path, int, "an integer")
    if n_max < 1:
        raise ParseError(f"{path}.n_max", f"must be >= 1, got {n_max}")
    stride = _require(raw, "stride", path, int, "an integer")
    if stride not in (1, 2):
        raise ParseError(f"{path}.stride", f"must be 1 or 2, got {stride}")
    kernels = _int_list(raw, "kernels", path)
    if sorted(set(kernels)) != sorted(kernels):
        raise ParseError(f"{path}.kernels", f"must be strictly increasing, got {kernels}")
    for k in kernels:
        if k < 1 or k % 2 == 0:
            raise ParseError(f"{path}.kernels", f"kernel sizes must be odd positives, got {k}")
    expansions = _int_list(raw, "expansions", path)
    if sorted(set(expansions)) != sorted(expansions):
        raise ParseError(f"{path}.expansions", f"must be strictly increasing, got {expansions}")
    for e in expansions:
        if e < 1:
            raise ParseError(f"{path}.expansions", f"expansion factors must be >= 1, got {e}")
    channels = _int_list(raw, "channels", path)
    if len(channels) != 3:
        raise ParseError(f"{path}.channels", f"expected [min, max, step], got {channels}")
    lo, hi, step = channels
    if lo < 1 or hi < lo:
        raise ParseError(f"{path}.channels", f"need 1 <= min <= max, got min={lo} max={hi}")
    if step < 1:
        raise ParseError(f"{path}.channels", f"step must be >= 1, got {step}")
    if (hi - lo) % step != 0:
        raise ParseError(f"{path}.channels",
                         f"step {step} does not divide range {hi - lo}")
    return BlockSpec(index=index, n_max=n_max, stride=stride,
                     kernels=tuple(kernels), expansions=tuple(expansions),
                     channel_range=(lo, hi, step))


def parse_config(text: str) -> SearchSpaceConfig:
    """Parse and validate a search-space JSON document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("$", f"expected a JSON object, got {type(raw).__name__}")
    version = _require(raw, "v", "$", int, "an integer")
    if version != SCHEMA_VERSION:
        raise ParseError("$.v", f"unsupported schema version {version}")
    res = _int_list(raw, "input_resolution", "$")
    if len(res) != 2 or min(res) < 1:
        raise ParseError("$.input_resolution", f"expected [H, W] positives, got {res}")
    stem_raw = raw.get("stem", {})
    if not isinstance(stem_raw, dict):
        raise ParseError("$.stem", f"expected an object, got {stem_raw!r}")
    stem = StemSpec(
        conv_channels=stem_raw.get("conv_channels", DEFAULT_STEM_CONV_CHANNELS),
        mbconv_channels=stem_raw.get("mbconv_channels", DEFAULT_STEM_MBCONV_CHANNELS),
    )
    for name, value in (("conv_channels", stem.conv_channels),
                        ("mbconv_channels", stem.mbconv_channels)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ParseError(f"$.stem.{name}", f"expected a positive integer, got {value!r}")
    blocks_raw = _require(raw, "blocks", "$", list, "a list")
    if not blocks_raw:
        raise ParseError("$.blocks", "at least one searchable block is required")
    blocks = tuple(_parse_block(b, i) for i, b in enumerate(blocks_raw))
    return SearchSpaceConfig(input_resolution=(res[0], res[1]), stem=stem, blocks=blocks)


def serialize_config(config: SearchSpaceConfig) -> str:
    """Emit a JSON document that parses back to an equal config."""
    doc = {
        "v": SCHEMA_VERSION,
        "input_resolution": list(config.input_resolution),
        "stem": {
            "conv_channels": config.stem.conv_channels,
            "mbconv_channels": config.stem.mbconv_channels,
        },
        "blocks": [
            {
                "n_max": b.n_max,
                "stride": b.stride,
                "kernels": list(b.kernels),
                "expansions": list(b.expansions),
                "channels": list(b.channel_range),
            }
            for b in config.blocks
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_config(path) -> SearchSpaceConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_config(text)
    except ParseError as exc:
        raise exc.in_file(path) from None


def bundled_config_path(name: str):
    """Path of a config shipped with the package (e.g. 'table1', 'desk3')."""
    return resources.files("nasadapt.configs").joinpath(f"{name}.json")


def load_bundled_config(name: str) -> SearchSpaceConfig:
    return parse_config(bundled_config_path(name).read_text(encoding="utf-8"))
