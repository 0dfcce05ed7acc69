"""Map source-network parameters across depth, width, and kernel changes.

Depth: target layers up to the source depth map positionally; deeper
target layers receive copies of the source block's last layer; a
shallower target drops the source tail.

Every tensor then maps by one rule in one resize: copy the overlap of
source and target into a target filled with the pad value, centred on the
kernel axes and leading on the channel axes (any of them, including the
hidden expanded width). So a larger kernel embeds the source in a zero
ring and a smaller one keeps its centre; a wider channel axis gains
trailing pad slices and a narrower one drops its tail. The zero mask is
everything outside the copied box when the pad is 0, and nothing
otherwise.

Both sides are read as the stage lists the networks build from: each
stage's weight maps to ``(c_out, c_in // groups, kernel, kernel)`` with
pad 0, and its four batch-norm tensors take the same resize at ``c_out``
with their own pad values: gamma 0, shift 0, running mean 0, running
variance 1. So padded channels emit exactly 0 in eval mode, and mappings
that only widen or only grow kernels preserve the source function. Depth
copies and truncations are not function preserving. Stage lists must
match. Zero-masked entries of trainable tensors may receive small uniform
noise as each tensor is mapped, so gradients can reach them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .derive import (
    DiscreteArchitecture,
    DiscreteNetwork,
    arch_from_doc,
    arch_layers,
    load_arch,
    save_arch,
)
from .errors import ContractError, ParameterError
from .layers import ConvStage, TensorSource, stem_stages
from .numerics import Tensor
from .numerics.container import load_tensors, save_tensors
from .numerics.tensor import DTYPE
from .searchspace import SearchSpaceConfig, StemSpec, write_json
from .supernet import logit_lengths, space_layers

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
    arch: DiscreteArchitecture | None = None

    def __post_init__(self):
        # perfbench/workloads.py still passes a document (until ROADMAP item 1)
        if isinstance(self.arch, dict):
            self.arch = arch_from_doc(self.arch)

    def save(self, path) -> None:
        path = Path(path)
        save_tensors(path, self.tensors)
        if self.arch is not None:
            save_arch(self.arch, path.with_suffix(".arch.json"))

    @classmethod
    def load(cls, path) -> "ParameterBundle":
        sidecar = Path(path).with_suffix(".arch.json")
        return cls(load_tensors(path), load_arch(sidecar) if sidecar.exists() else None)


@dataclass
class MappingEntry:
    target: str
    source: str
    rules: tuple[str, ...]
    zero_count: int
    noised: bool


@dataclass
class MappingReport:
    """One entry per target tensor, in mapping order."""

    entries: dict[str, MappingEntry] = field(default_factory=dict)

    def add(self, target: str, source: str, rules: list[str], zero_count: int,
            noised: bool) -> None:
        if target in self.entries:
            raise ContractError(f"target tensor '{target}' mapped twice")
        self.entries[target] = MappingEntry(
            target=target, source=source,
            rules=tuple(rules) if rules else (RULE_DIRECT,),
            zero_count=zero_count, noised=noised)

    def save(self, path) -> None:
        write_json({"entries": [asdict(e) for e in self.entries.values()]}, path)


def _resize(arr: np.ndarray, shape: tuple[int, ...], centred: tuple[int, ...] = (),
            pad: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Copy the overlap of ``arr`` and a ``shape`` array filled with ``pad``.

    The overlap is centred on the ``centred`` axes and leading on the others.
    Returns a fresh array and its zero mask: every entry outside the copied
    box when the pad is 0, and nothing otherwise.
    """
    if arr.shape == shape:
        return arr.copy(), np.zeros(shape, dtype=bool)
    src, dst = [], []
    for axis, (n, m) in enumerate(zip(arr.shape, shape)):
        off = abs(n - m) // 2 if axis in centred else 0
        common = min(n, m)
        src.append(slice(off, off + common) if n > m else slice(0, common))
        dst.append(slice(off, off + common) if m > n else slice(0, common))
    out = np.full(shape, pad, dtype=arr.dtype)
    out[tuple(dst)] = arr[tuple(src)]
    mask = np.full(shape, pad == 0)
    mask[tuple(dst)] = False
    return out, mask


def _map_tensor(arr: np.ndarray, shape: tuple[int, ...], pad: float,
                ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Map one tensor onto ``shape`` in one resize: a conv weight
    ``(c_out, c_in // groups, k, k)`` or a batch-norm vector ``(c_out,)``.
    Returns the tensor, its zero mask and its rules, read off the extents:
    the kernel first, then the channel axes in order."""
    kernel = len(shape) == 4
    out, mask = _resize(arr, shape, centred=(2, 3) if kernel else (), pad=pad)
    extents = [(arr.shape[2], shape[2], RULE_KERNEL_EMBED, RULE_KERNEL_CROP)] if kernel else []
    extents += [(n, m, RULE_CHANNEL_PAD, RULE_CHANNEL_TRUNCATE)
                for n, m in zip(arr.shape[:2], shape[:2])]
    return out, mask, [grow if m > n else shrink for n, m, grow, shrink in extents if n != m]


def _stage_tensors(s: ConvStage) -> tuple[tuple[str, tuple, float], ...]:
    """Each tensor of a stage in mapping order: name, shape, and its new entries' value."""
    c = (s.c_out,)
    return (("weight", s.weight_shape, 0.0), ("bn/gamma", c, 0.0), ("bn/beta", c, 0.0),
            ("bn/mean", c, 0.0), ("bn/var", c, 1.0))


def _map(source: ParameterBundle, stem: StemSpec, blocks: list, eps: float, seed: int,
         ) -> tuple[dict[str, np.ndarray], MappingReport]:
    """Map a source onto a target given as ``blocks[i][l]``: the (tensor
    prefix, stage list) of every operation of layer l in block i. Every
    tensor the source's stage lists name is checked for its shape, without
    building the source network. The stem is copied, parameters first;
    target layer l of a block takes source layer l, or the source block's
    last layer beyond its depth, whose stage list must match the target's
    stage by stage. Returns the tensors and the report in mapping order.

    As each tensor is put, U(-eps, eps) noise from one ``PCG64(seed)`` stream
    is added to its zero-masked entries. Running statistics are skipped:
    they are never backpropagated, which is the only reason the noise
    exists. eps = 0 leaves everything bit-identical."""
    check_eps(eps)
    source_arch = source.arch
    if source_arch is None:
        raise ContractError("bundle carries no architecture: its .arch.json sidecar is missing")
    if source_arch.stem != stem:
        raise ContractError(f"incompatible stem: source {source_arch.stem} vs target {stem}")
    if len(source_arch.blocks) != len(blocks):
        raise ContractError(
            f"source has {len(source_arch.blocks)} blocks, target has {len(blocks)}")
    src_blocks = arch_layers(source_arch)
    shapes = {f"{prefix}/{st.name}/{name}": shape
              for prefix, stages in [("stem", stem_stages(stem)), *sum(src_blocks, [])]
              for st in stages for name, shape, _ in _stage_tensors(st)}
    reader = TensorSource(arrays=source.tensors)
    for name, shape in shapes.items():
        reader.read(name, shape)
    out: dict[str, np.ndarray] = {}
    report = MappingReport()
    rng = np.random.Generator(np.random.PCG64(seed))

    def put(target, source_name, shape, pad=0.0, base=()):
        arr, mask, rules = _map_tensor(source.tensors[source_name], shape, pad)
        zero_count = int(mask.sum())
        noised = eps > 0 and zero_count > 0 and not target.endswith(_STAT_SUFFIXES)
        if noised:
            arr[mask] += rng.uniform(-eps, eps, size=zero_count).astype(DTYPE)
        out[target] = arr
        report.add(target, source_name, [*base, *rules], zero_count, noised)

    stem_names = [name for name in shapes if name.startswith("stem/")]
    for name in sorted(stem_names, key=lambda n: n.endswith(_STAT_SUFFIXES)):
        put(name, name, shapes[name])
    for src_layers, layers in zip(src_blocks, blocks):
        last = len(src_layers) - 1
        for l, ops in enumerate(layers):
            s_prefix, s_stages = src_layers[min(l, last)]
            base = (RULE_DEPTH_COPY,) if l > last else ()
            for prefix, stages in ops:
                s_names, t_names = ([st.name for st in x] for x in (s_stages, stages))
                if s_names != t_names:
                    raise ContractError(f"cannot map {s_prefix} (stages {s_names}) onto "
                                        f"{prefix} (stages {t_names})")
                for s, t in zip(s_stages, stages):
                    for name, shape, pad in _stage_tensors(t):
                        put(f"{prefix}/{t.name}/{name}", f"{s_prefix}/{s.name}/{name}",
                            shape, pad, base)
    return out, report


def check_eps(eps: float) -> None:
    """A mapping noise amplitude is finite, >= 0 and a float32 value (the
    noise is drawn in float32)."""
    if not 0 <= eps <= float(np.finfo(DTYPE).max):
        raise ParameterError(f"eps must be finite and >= 0, got {eps}")


def map_to_derived(source: ParameterBundle, arch: DiscreteArchitecture,
                   eps: float = 0.0, seed: int = 0,
                   ) -> tuple[ParameterBundle, MappingReport]:
    """Map a source bundle onto a discrete target architecture."""
    blocks = [[[layer] for layer in layers] for layers in arch_layers(arch)]
    tensors, report = _map(source, arch.stem, blocks, eps, seed)
    return ParameterBundle(tensors=tensors, arch=arch), report


def map_to_supernet(source: ParameterBundle, config: SearchSpaceConfig,
                    eps: float = 0.0, seed: int = 0,
                    ) -> tuple[ParameterBundle, MappingReport]:
    """Map a source bundle onto every operation candidate of a search space.

    Returns a complete supernet checkpoint (no architecture metadata) and
    the report covering every weight and normalization tensor. The
    checkpoint holds zero architecture logits, then the parameters, then
    the running statistics, in the order ``Supernet.to_arrays`` writes them.
    """
    blocks = [[[(prefix, stages) for prefix, stages in layout if stages]
               for layout in layers]
              for layers in space_layers(config)]
    tensors, report = _map(source, config.stem, blocks, eps, seed)
    arrays = {name: np.zeros(length, dtype=DTYPE)
              for name, length in logit_lengths(config).items()}
    for stats in (False, True):
        arrays.update((name, arr) for name, arr in tensors.items()
                      if name.endswith(_STAT_SUFFIXES) == stats)
    return ParameterBundle(tensors=arrays), report


def check_probes(samples: int, tol: float, seed: int) -> None:
    """A function-preservation check probes at least one input, drawn from a
    seed >= 0, and its tolerance is finite and >= 0."""
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if not 0 <= tol < np.inf:
        raise ParameterError(f"tol must be >= 0 and finite, got {tol}")
    if seed < 0:
        raise ParameterError(f"probe seed must be >= 0, got {seed}")


def verify_function_preservation(source_net: DiscreteNetwork,
                                 mapped_net: DiscreteNetwork,
                                 samples: int = 16, tol: float = 1e-5,
                                 seed: int = 0) -> dict:
    """Compare eval-mode outputs on shared channels over random inputs.

    Only meaningful for mappings limited to kernel embedding and channel
    padding (eps 0); depth copies and crops change the function.
    """
    check_probes(samples, tol, seed)
    if len(source_net.blocks) != len(mapped_net.blocks):
        raise ContractError("networks have different block counts")
    h, w = source_net.arch.input_resolution
    rng = np.random.Generator(np.random.PCG64(seed))
    per_block = [0.0] * len(source_net.blocks)
    shared = [min(s.channels, t.channels)
              for s, t in zip(source_net.arch.blocks, mapped_net.arch.blocks)]
    for _ in range(samples):
        x = rng.random((1, 3, h, w), dtype=np.float32)
        src_feats = source_net.forward(Tensor(x), training=False)
        tgt_feats = mapped_net.forward(Tensor(x), training=False)
        for b, (fs, ft) in enumerate(zip(src_feats, tgt_feats)):
            if fs.shape[2:] != ft.shape[2:]:
                raise ContractError(
                    f"block{b} outputs {fs.shape[2]}x{fs.shape[3]} in the source but "
                    f"{ft.shape[2]}x{ft.shape[3]} in the target: their strides differ")
            dev = float(np.abs(fs.data[:, :shared[b]] -
                               ft.data[:, :shared[b]]).max())
            if not np.isfinite(dev):
                raise ContractError(f"block{b} deviates by {dev}: its outputs are not finite")
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
