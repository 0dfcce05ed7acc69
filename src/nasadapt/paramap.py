"""Map source-network parameters across depth, width, and kernel changes.

Rules, applied per tensor:

- depth: target layers up to the source depth map positionally; deeper
  target layers receive copies of the source block's last layer; a
  shallower target drops the source tail.
- channels (any channel axis, including the hidden expanded width):
  widening zero-fills the new trailing slices, narrowing drops them.
- kernel: a larger target kernel embeds the source centrally inside a
  zero ring; a smaller one keeps the overlapping central region.

Newly created batch-norm channels get gamma 0, shift 0, running mean 0,
running variance 1, so padded channels emit exactly 0 in eval mode and
mappings that only widen or only grow kernels preserve the source
function. Depth copies and truncations are not function preserving.
Zero-assigned entries of trainable tensors may receive small uniform
noise afterwards so gradients can reach them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .derive import (
    DiscreteArchitecture,
    DiscreteNetwork,
    arch_from_json,
    arch_to_json,
)
from .errors import ContractError, ParameterError
from .layers import load_named_arrays
from .numerics import Tensor, no_grad
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE

RULE_DIRECT = "direct"
RULE_DEPTH_COPY = "depth-copy"
RULE_CHANNEL_PAD = "channel-pad"
RULE_CHANNEL_TRUNCATE = "channel-truncate"
RULE_KERNEL_EMBED = "kernel-embed"
RULE_KERNEL_CROP = "kernel-crop"

_STAT_SUFFIXES = ("/bn/mean", "/bn/var")


@dataclass
class ParameterBundle:
    """Named float32 tensors plus the architecture they belong to."""

    tensors: dict[str, np.ndarray]
    arch: dict | None = None

    def save(self, path) -> None:
        path = Path(path)
        save_tensors(path, self.tensors)
        if self.arch is not None:
            path.with_suffix(".arch.json").write_text(
                json.dumps(self.arch, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ParameterBundle":
        path = Path(path)
        tensors = load_tensors(path)
        sidecar = path.with_suffix(".arch.json")
        arch = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else None
        return cls(tensors=tensors, arch=arch)

    def architecture(self) -> DiscreteArchitecture:
        if self.arch is None:
            raise ContractError("bundle carries no architecture metadata")
        return arch_from_json(json.dumps(self.arch))


@dataclass
class MappingEntry:
    target: str
    source: str
    rules: tuple[str, ...]
    zero_count: int
    noised: bool = False


@dataclass
class MappingReport:
    """One entry per target tensor; zero masks track entries assigned 0."""

    entries: dict[str, MappingEntry] = field(default_factory=dict)
    zero_masks: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, target: str, source: str, rules: list[str],
            zero_mask: np.ndarray) -> None:
        if target in self.entries:
            raise ContractError(f"target tensor '{target}' mapped twice")
        self.entries[target] = MappingEntry(
            target=target, source=source,
            rules=tuple(rules) if rules else (RULE_DIRECT,),
            zero_count=int(zero_mask.sum()))
        self.zero_masks[target] = zero_mask

    def to_json(self) -> str:
        doc = {
            "entries": [
                {"target": e.target, "source": e.source, "rules": list(e.rules),
                 "zero_count": e.zero_count, "noised": e.noised}
                for e in self.entries.values()
            ]
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def map_kernel(weight: np.ndarray, target_k: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Center-embed into a larger kernel or center-crop to a smaller one.

    Returns (mapped, zero_mask, rule). Embedding then cropping back is the
    identity.
    """
    k = weight.shape[-1]
    if weight.ndim < 2 or weight.shape[-2] != k:
        raise ParameterError(f"expected a trailing square kernel, got shape {weight.shape}")
    if k % 2 == 0 or target_k % 2 == 0 or target_k < 1:
        raise ParameterError(f"kernel sizes must be odd positives, got {k} -> {target_k}")
    if target_k == k:
        return weight.copy(), np.zeros(weight.shape, dtype=bool), None
    if target_k > k:
        off = (target_k - k) // 2
        out = np.zeros(weight.shape[:-2] + (target_k, target_k), dtype=weight.dtype)
        out[..., off:off + k, off:off + k] = weight
        mask = np.ones(out.shape, dtype=bool)
        mask[..., off:off + k, off:off + k] = False
        return out, mask, RULE_KERNEL_EMBED
    off = (k - target_k) // 2
    out = weight[..., off:off + target_k, off:off + target_k].copy()
    return out, np.zeros(out.shape, dtype=bool), RULE_KERNEL_CROP


def map_channels(weight: np.ndarray, source_c: int, target_c: int, axis: int = 0,
                 pad_value: float = 0.0) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Zero-fill new trailing channel slices or drop exceeding ones.

    The axis must be stated explicitly; producing layers map their output
    axis, consuming layers their input axis. Returns (mapped, zero_mask,
    rule); the mask marks entries assigned the pad value 0.
    """
    if weight.shape[axis] != source_c:
        raise ParameterError(
            f"axis {axis} has extent {weight.shape[axis]}, expected {source_c}")
    if target_c < 1:
        raise ParameterError(f"target channels must be >= 1, got {target_c}")
    if target_c == source_c:
        return weight.copy(), np.zeros(weight.shape, dtype=bool), None
    index = [slice(None)] * weight.ndim
    if target_c > source_c:
        shape = list(weight.shape)
        shape[axis] = target_c
        out = np.full(shape, pad_value, dtype=weight.dtype)
        index[axis] = slice(0, source_c)
        out[tuple(index)] = weight
        mask = np.zeros(shape, dtype=bool)
        if pad_value == 0.0:
            index[axis] = slice(source_c, target_c)
            mask[tuple(index)] = True
        return out, mask, RULE_CHANNEL_PAD
    index[axis] = slice(0, target_c)
    out = weight[tuple(index)].copy()
    return out, np.zeros(out.shape, dtype=bool), RULE_CHANNEL_TRUNCATE


def map_depth(source_layers: list, target_depth: int) -> list[tuple[object, bool]]:
    """Assign a source layer to each of ``target_depth`` layers.

    Returns (layer, is_copy) pairs: positional for the common prefix, the
    last source layer repeated beyond it, the source tail dropped when the
    target is shallower.
    """
    if not source_layers:
        raise ParameterError("source block must have at least one layer")
    if target_depth < 1:
        raise ParameterError(f"target depth must be >= 1, got {target_depth}")
    n = len(source_layers)
    return [(source_layers[min(l, n - 1)], l >= n) for l in range(target_depth)]


@dataclass(frozen=True)
class _MBConvDims:
    c_in: int
    c_out: int
    kernel: int
    expansion: int

    @property
    def hidden(self) -> int:
        return self.expansion * self.c_in


def _bn_tensors(src: dict, src_prefix: str, tgt_prefix: str, source_c: int,
                target_c: int, out: dict, report: MappingReport,
                base_rules: list[str]) -> None:
    for name, pad in (("gamma", 0.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
        arr = src[f"{src_prefix}/bn/{name}"]
        mapped, mask, rule = map_channels(arr, source_c, target_c, axis=0, pad_value=pad)
        rules = base_rules + ([rule] if rule else [])
        target = f"{tgt_prefix}/bn/{name}"
        out[target] = mapped
        report.add(target, f"{src_prefix}/bn/{name}", rules, mask)


def _map_mbconv(src: dict, src_prefix: str, tgt_prefix: str, sdims: _MBConvDims,
                tdims: _MBConvDims, out: dict, report: MappingReport,
                depth_copied: bool) -> None:
    """Map one inverted-residual layer's tensors across dims changes."""
    base = [RULE_DEPTH_COPY] if depth_copied else []
    if (sdims.expansion == 1) != (tdims.expansion == 1):
        raise ContractError(
            f"cannot map between expansion {sdims.expansion} and {tdims.expansion}: "
            f"one side has no expansion stage ({src_prefix} -> {tgt_prefix})")
    if sdims.expansion != 1:
        w = src[f"{src_prefix}/expand/weight"]
        w1, m1, r1 = map_channels(w, sdims.hidden, tdims.hidden, axis=0)
        w2, m2, r2 = map_channels(w1, sdims.c_in, tdims.c_in, axis=1)
        mask = map_channels(m1.astype(np.float32), sdims.c_in, tdims.c_in,
                            axis=1, pad_value=1.0)[0].astype(bool) | m2
        rules = base + [r for r in (r1, r2) if r]
        report.add(f"{tgt_prefix}/expand/weight", f"{src_prefix}/expand/weight",
                   rules, mask)
        out[f"{tgt_prefix}/expand/weight"] = w2
        _bn_tensors(src, f"{src_prefix}/expand", f"{tgt_prefix}/expand",
                    sdims.hidden, tdims.hidden, out, report, base)

    w = src[f"{src_prefix}/depthwise/weight"]
    w1, m1, r1 = map_kernel(w, tdims.kernel)
    w2, m2, r2 = map_channels(w1, sdims.hidden, tdims.hidden, axis=0)
    mask = map_channels(m1.astype(np.float32), sdims.hidden, tdims.hidden,
                        axis=0, pad_value=1.0)[0].astype(bool) | m2
    rules = base + [r for r in (r1, r2) if r]
    report.add(f"{tgt_prefix}/depthwise/weight", f"{src_prefix}/depthwise/weight",
               rules, mask)
    out[f"{tgt_prefix}/depthwise/weight"] = w2
    _bn_tensors(src, f"{src_prefix}/depthwise", f"{tgt_prefix}/depthwise",
                sdims.hidden, tdims.hidden, out, report, base)

    w = src[f"{src_prefix}/project/weight"]
    w1, m1, r1 = map_channels(w, sdims.c_out, tdims.c_out, axis=0)
    w2, m2, r2 = map_channels(w1, sdims.hidden, tdims.hidden, axis=1)
    mask = map_channels(m1.astype(np.float32), sdims.hidden, tdims.hidden,
                        axis=1, pad_value=1.0)[0].astype(bool) | m2
    rules = base + [r for r in (r1, r2) if r]
    report.add(f"{tgt_prefix}/project/weight", f"{src_prefix}/project/weight",
               rules, mask)
    out[f"{tgt_prefix}/project/weight"] = w2
    _bn_tensors(src, f"{src_prefix}/project", f"{tgt_prefix}/project",
                sdims.c_out, tdims.c_out, out, report, base)


def _copy_stem(src: dict, out: dict, report: MappingReport) -> None:
    for name, arr in src.items():
        if name.startswith("stem/"):
            out[name] = arr.copy()
            report.add(name, name, [], np.zeros(arr.shape, dtype=bool))


def _source_layer_dims(arch: DiscreteArchitecture, block: int) -> list[_MBConvDims]:
    c_in = arch.stem.mbconv_channels if block == 0 else arch.blocks[block - 1].channels
    dims = []
    for j, op in enumerate(arch.blocks[block].ops):
        dims.append(_MBConvDims(c_in=c_in if j == 0 else arch.blocks[block].channels,
                                c_out=arch.blocks[block].channels,
                                kernel=op.kernel, expansion=op.expansion))
    return dims


def _check_stem_compatible(source_arch: DiscreteArchitecture, stem, where: str) -> None:
    if source_arch.stem != stem:
        raise ContractError(
            f"incompatible stem for {where}: source {source_arch.stem} vs target {stem}")


def add_mapping_noise(bundle_tensors: dict[str, np.ndarray], report: MappingReport,
                      eps: float, seed: int) -> None:
    """Add U(-eps, eps) noise to zero-assigned entries of trainable tensors.

    Running statistics are skipped: they are never backpropagated, which
    is the only reason the noise exists. eps = 0 leaves everything
    bit-identical.
    """
    if eps < 0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    if eps == 0:
        return
    rng = np.random.Generator(np.random.PCG64(seed))
    for target, entry in report.entries.items():
        if target.endswith(_STAT_SUFFIXES):
            continue
        mask = report.zero_masks[target]
        count = int(mask.sum())
        if count == 0:
            continue
        noise = rng.uniform(-eps, eps, size=count).astype(DTYPE)
        bundle_tensors[target][mask] += noise
        entry.noised = True


def map_to_derived(source: ParameterBundle, arch: DiscreteArchitecture,
                   eps: float = 0.0, seed: int = 0,
                   source_arch: DiscreteArchitecture | None = None,
                   ) -> tuple[ParameterBundle, MappingReport]:
    """Map a source bundle onto a discrete target architecture."""
    source_arch = source_arch or source.architecture()
    _check_stem_compatible(source_arch, arch.stem, "derived mapping")
    if len(source_arch.blocks) != len(arch.blocks):
        raise ContractError(
            f"source has {len(source_arch.blocks)} blocks, target has {len(arch.blocks)}")
    report = MappingReport()
    out: dict[str, np.ndarray] = {}
    _copy_stem(source.tensors, out, report)
    for i, tgt_block in enumerate(arch.blocks):
        src_dims = _source_layer_dims(source_arch, i)
        tgt_dims = _source_layer_dims(arch, i)
        assignment = map_depth(list(range(len(src_dims))), len(tgt_block.ops))
        for l, (src_l, copied) in enumerate(assignment):
            _map_mbconv(source.tensors, f"block{i}/layer{src_l}", f"block{i}/layer{l}",
                        src_dims[src_l], tgt_dims[l], out, report, copied)
    add_mapping_noise(out, report, eps, seed)
    bundle = ParameterBundle(tensors=out, arch=json.loads(arch_to_json(arch)))
    return bundle, report


def map_to_supernet(source: ParameterBundle, net, eps: float = 0.0, seed: int = 0,
                    source_arch: DiscreteArchitecture | None = None,
                    ) -> tuple[object, MappingReport]:
    """Map a source bundle onto every operation candidate of a supernet.

    Architecture logits are initialization state, not mapped tensors, and
    stay untouched. Returns the supernet (mutated in place) and the report
    covering every weight and normalization tensor.
    """
    source_arch = source_arch or source.architecture()
    config = net.config
    _check_stem_compatible(source_arch, config.stem, "supernet mapping")
    if len(source_arch.blocks) != len(config.blocks):
        raise ContractError(
            f"source has {len(source_arch.blocks)} blocks, space has "
            f"{len(config.blocks)}")
    report = MappingReport()
    out: dict[str, np.ndarray] = {}
    _copy_stem(source.tensors, out, report)
    for i, block in enumerate(net.blocks):
        src_dims = _source_layer_dims(source_arch, i)
        assignment = map_depth(list(range(len(src_dims))), len(block.layers))
        for l, (src_l, copied) in enumerate(assignment):
            layer = block.layers[l]
            for o, cand in enumerate(layer.candidates):
                if cand.kind == "skip":
                    continue
                tdims = _MBConvDims(c_in=layer.c_in, c_out=layer.c_out,
                                    kernel=cand.kernel, expansion=cand.expansion)
                _map_mbconv(source.tensors, f"block{i}/layer{src_l}",
                            f"block{i}/layer{l}/op{o}", src_dims[src_l], tdims,
                            out, report, copied)
    add_mapping_noise(out, report, eps, seed)
    load_named_arrays(net.named_weight_params(), net.named_state(), out)
    return net, report


def verify_function_preservation(source_net: DiscreteNetwork,
                                 mapped_net: DiscreteNetwork,
                                 samples: int = 16, tol: float = 1e-5,
                                 seed: int = 0) -> dict:
    """Compare eval-mode outputs on shared channels over random inputs.

    Only meaningful for mappings limited to kernel embedding and channel
    padding (eps 0); depth copies and crops change the function.
    """
    if len(source_net.blocks) != len(mapped_net.blocks):
        raise ContractError("networks have different block counts")
    h, w = source_net.arch.input_resolution
    rng = np.random.Generator(np.random.PCG64(seed))
    per_block = [0.0] * len(source_net.blocks)
    shared = [min(s.channels, t.channels)
              for s, t in zip(source_net.arch.blocks, mapped_net.arch.blocks)]
    with no_grad():
        for _ in range(samples):
            x = rng.random((1, 3, h, w), dtype=np.float32)
            src_feats = source_net.forward(Tensor(x), training=False)
            tgt_feats = mapped_net.forward(Tensor(x), training=False)
            for b, (fs, ft) in enumerate(zip(src_feats, tgt_feats)):
                dev = float(np.abs(fs.data[:, :shared[b]] -
                                   ft.data[:, :shared[b]]).max())
                per_block[b] = max(per_block[b], dev)
    worst = int(np.argmax(per_block))
    return {
        "passed": bool(max(per_block) <= tol),
        "max_deviation": float(max(per_block)),
        "tol": tol,
        "samples": samples,
        "per_block": [
            {"block": b, "deviation": per_block[b], "shared_channels": shared[b]}
            for b in range(len(per_block))
        ],
        "worst": f"block{worst}",
    }
