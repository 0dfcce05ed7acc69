"""Search-space description: stem plus a chain of searchable blocks.

A JSON document declares, per block, the maximum operation count, the
first-operation stride, the kernel/expansion candidate sets, and an
inclusive arithmetic channel range ``(min, max, step)``. Candidate
enumeration is deterministic and sorted so that architecture-logit
indices stay stable across runs and checkpoints: channel candidates
ascending, operation candidates in (kernel, expansion) lexical order
with the skip connection last.

The module also holds the JSON codec of every document the package reads
or writes: one format, one file reader, field errors at ``$``-rooted paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ParameterError, ParseError

SCHEMA_VERSION = 1
DEFAULT_STEM_CONV_CHANNELS = 32
DEFAULT_STEM_MBCONV_CHANNELS = 16


@dataclass(frozen=True)
class OpCandidate:
    """One operation, searchable or derived: an inverted-residual conv or a skip."""

    kind: str = "mbconv"  # or "skip"
    kernel: int | None = None
    expansion: int | None = None
    stride: int = 1


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
    """Operation candidates of layer ``layer`` of a block.

    Every layer offers each kernel/expansion combination; only the first
    layer's convolutions carry the block's stride. Later layers add the skip
    connection, so a block can shrink below n_max operations but never to
    zero.
    """
    if not 0 <= layer < spec.n_max:
        raise ParameterError(
            f"layer must be in [0, {spec.n_max}) for block {spec.index}, got {layer}")
    stride = spec.stride if layer == 0 else 1
    cands = [OpCandidate(kernel=k, expansion=e, stride=stride)
             for k in spec.kernels for e in spec.expansions]
    if layer > 0:
        cands.append(SKIP)
    return cands


def json_text(doc) -> str:
    """The one document format: sorted keys, 2-space indent, no NaN or
    infinity (which JSON cannot hold; ``ValueError``)."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def write_json(doc, path) -> None:
    """Write ``doc`` and a newline to ``path``, or print it when ``path`` is None."""
    if path is None:
        print(json_text(doc))
    else:
        Path(path).write_text(json_text(doc) + "\n", encoding="utf-8")


def parse_json(text: str | bytes) -> dict:
    """Decode a document whose top level must be a JSON object."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("$", f"expected a JSON object, got {type(raw).__name__}")
    return raw


def read_json(path, from_doc):
    """``from_doc`` of the document in file ``path``; errors name the file."""
    try:
        return from_doc(parse_json(Path(path).read_bytes()))
    except ParseError as exc:
        raise exc.in_file(path) from None
    except ParameterError as exc:
        raise ParseError(f"{path}:$", str(exc)) from None


def _require(obj, key, path, types, type_name):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{path}.{key}", f"expected {type_name}, got {value!r}")
    return value


def _bounded(obj, key, path, ok, what):
    """An integer field that must satisfy ``ok``; ``what`` names the bound."""
    value = _require(obj, key, path, int, "an integer")
    if not ok(value):
        raise ParseError(f"{path}.{key}", f"must be {what}, got {value}")
    return value


def _positive(obj, key, path):
    return _bounded(obj, key, path, lambda v: v >= 1, ">= 1")


def _resolution(obj, key, path) -> tuple[int, int]:
    value = _require(obj, key, path, list, "a list")
    if len(value) != 2 or not all(type(v) is int and v >= 1 for v in value):
        raise ParseError(f"{path}.{key}", f"expected [H, W] positives, got {value}")
    return value[0], value[1]


def _known(obj, keys, path):
    for key in obj:
        if key not in keys:
            raise ParseError(f"{path}.{key}", "unknown field")


def _int_list(obj, key, path):
    value = _require(obj, key, path, list, "a list of integers")
    if not value or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ParseError(f"{path}.{key}", f"expected a non-empty list of integers, got {value!r}")
    return value


def _ascending(obj, key, path, ok, what):
    """A strictly increasing list of integers, each satisfying ``ok``."""
    values = _int_list(obj, key, path)
    if values != sorted(set(values)):
        raise ParseError(f"{path}.{key}", f"must be strictly increasing, got {values}")
    for v in values:
        if not ok(v):
            raise ParseError(f"{path}.{key}", f"entries must be {what}, got {v}")
    return tuple(values)


def _parse_block(raw, index: int) -> BlockSpec:
    path = f"$.blocks[{index}]"
    n_max = _positive(raw, "n_max", path)
    _known(raw, ("n_max", "stride", "kernels", "expansions", "channels"), path)
    stride = _bounded(raw, "stride", path, lambda v: v in (1, 2), "1 or 2")
    kernels = _ascending(raw, "kernels", path, lambda v: v >= 1 and v % 2 == 1, "odd and >= 1")
    expansions = _ascending(raw, "expansions", path, lambda v: v >= 1, ">= 1")
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
                     kernels=kernels, expansions=expansions,
                     channel_range=(lo, hi, step))


def _config_from_doc(raw: dict) -> SearchSpaceConfig:
    _bounded(raw, "v", "$", lambda v: v == SCHEMA_VERSION, f"version {SCHEMA_VERSION}")
    _known(raw, ("v", "input_resolution", "stem", "blocks"), "$")
    resolution = _resolution(raw, "input_resolution", "$")
    # a space may leave out the stem or either width (StemSpec's defaults), not misspell them
    stem_raw = _require(raw, "stem", "$", dict, "an object") if "stem" in raw else {}
    _known(stem_raw, ("conv_channels", "mbconv_channels"), "$.stem")
    stem = StemSpec(**{name: _positive(stem_raw, name, "$.stem") for name in stem_raw})
    blocks_raw = _require(raw, "blocks", "$", list, "a list")
    if not blocks_raw:
        raise ParseError("$.blocks", "at least one searchable block is required")
    blocks = tuple(_parse_block(b, i) for i, b in enumerate(blocks_raw))
    return SearchSpaceConfig(input_resolution=resolution, stem=stem, blocks=blocks)


def parse_config(text: str) -> SearchSpaceConfig:
    """Parse and validate a search-space JSON document."""
    return _config_from_doc(parse_json(text))


def load_config(path) -> SearchSpaceConfig:
    return read_json(path, _config_from_doc)


def bundled_config_path(name: str):
    """Path of a config shipped with the package (e.g. 'table1', 'desk3')."""
    return resources.files("nasadapt.configs").joinpath(f"{name}.json")


def load_bundled_config(name: str) -> SearchSpaceConfig:
    return parse_config(bundled_config_path(name).read_text(encoding="utf-8"))
