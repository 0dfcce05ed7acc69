"""The benchmark's workloads: one pipeline pass each, and their checks.

Each workload is a closed loop: the harness runs one pass, waits for it,
and only then starts the next, all in the calling process. A pass
returns a :class:`PassResult`; :meth:`Workload.check` runs the
correctness checks on the artifacts of one pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nasadapt.cli as cli
from nasadapt.derive import (
    DerivedBlock,
    DerivedOp,
    DiscreteArchitecture,
    arch_to_json,
    default_source_architecture,
    instantiate,
    save_arch,
)
from nasadapt.numerics import count_madds
from nasadapt.numerics.container import load_tensors, save_tensors
from nasadapt.paramap import ParameterBundle
from nasadapt.searchspace import bundled_config_path, load_config

from instrument import Instrumentation

_clock = time.perf_counter

# expected cost under one-hot logits must equal the discrete cost up to
# float32 accumulation over a few dozen table entries
ONE_HOT_RTOL = 1e-6
# logit given to every losing candidate: softmax maps it to exactly 0.0
ONE_HOT_OFF = -1e9


@dataclass
class PassResult:
    """What one pass did and how long its parts took."""

    wall_s: float
    phases: dict[str, float]  # e2e stages or CLI commands -> seconds
    attempted: int
    failed: int
    conv_calls: int  # from count_madds() around the pass
    conv_madds: int
    instr: Instrumentation
    errors: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    derived_madds: int | None = None

    @property
    def derived_arch_sha256(self) -> str | None:
        return self.hashes.get("derived_arch.json")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def hash_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    name: str
    space: str  # bundled config name
    nominal_pass_s: float  # one untraced pass on the reference machine
    phase_layer: str  # per-layer metric prefix of the timed phases
    phases: tuple[str, ...]  # e2e stages or CLI commands, in run order

    def space_path(self) -> str:
        return str(bundled_config_path(self.space))

    def passes_for(self, seconds: float) -> int:
        """Fixed pass count for a run length, so both commits do equal work."""
        return max(1, round(seconds / self.nominal_pass_s))

    def run_pass(self, seed: int, out: Path, full: bool) -> PassResult:
        raise NotImplementedError

    def check(self, out: Path, scratch: Path) -> tuple[int, int, list[str]]:
        """Correctness checks on one pass's artifacts: (commands run, failed, errors)."""
        raise NotImplementedError

    def headline(self, result: PassResult) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures of one pass."""
        raise NotImplementedError


def _cli(argv: list[str]) -> tuple[int, float, str | None]:
    """Run one CLI command in-process: (exit code, seconds, error or None)."""
    start = _clock()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a harness crash
        return 2, _clock() - start, f"{argv[0]} raised {type(exc).__name__}: {exc}"
    elapsed = _clock() - start
    return code, elapsed, None if code == 0 else f"{argv[0]} exited {code}"


class Desk3E2E(Workload):
    name = "desk3-e2e"
    space = "desk3"
    nominal_pass_s = 27.0
    phase_layer = "cli.stage"
    phases = ("data", "pretrain", "supernet_map", "search", "derive", "remap",
              "finetune", "evaluate")

    def run_pass(self, seed: int, out: Path, full: bool) -> PassResult:
        errors = []
        with count_madds() as counter, Instrumentation(full) as instr:
            start = _clock()
            try:
                summary = cli.end_to_end(self.space_path(), seed, out)
            except Exception as exc:  # the stage that raised counts as failed
                summary = None
                errors.append(f"end_to_end raised {type(exc).__name__}: {exc}")
            end = _clock()
        phases = instr.stage_seconds(end)
        result = PassResult(wall_s=end - start, phases=phases, attempted=len(phases),
                            failed=len(errors), conv_calls=counter.conv_calls,
                            conv_madds=counter.madds, instr=instr, errors=errors)
        if summary is not None:
            if tuple(phases) != self.phases:
                errors.append(f"stages seen {list(phases)}, expected {list(self.phases)}")
            result.hashes = hash_tree(out)
            result.derived_madds = summary["derived_madds"]
        return result

    def check(self, out: Path, scratch: Path) -> tuple[int, int, list[str]]:
        errors = []
        summary = _read_json(out / "summary.json")
        for key in ("final_loss", "source_pretrain_loss"):
            value = summary.get(key)
            if not isinstance(value, float) or not math.isfinite(value):
                errors.append(f"summary {key} is not a finite number: {value!r}")
        n_classes = _read_json(out / "data.json")["n_classes"]
        if not summary["train_accuracy"] > 1.0 / n_classes:
            errors.append(f"train_accuracy {summary['train_accuracy']} is not above "
                          f"chance 1/{n_classes}")

        scratch.mkdir(parents=True, exist_ok=True)
        cost_code, _, cost_err = _cli(["cost", "--space", self.space_path(),
                                       "--arch", str(out / "derived_arch.json"),
                                       "--out", str(scratch / "cost_arch.json")])
        if cost_err:
            errors.append(cost_err)
        elif _read_json(scratch / "cost_arch.json")["total"] != summary["derived_madds"]:
            errors.append("derived_madds differs from cost --arch on derived_arch.json")
        derive_code, _, derive_err = _cli(["derive", "--ckpt", str(out / "supernet.nat"),
                                           "--space", self.space_path(),
                                           "--out", str(scratch / "derived_arch.json")])
        if derive_err:
            errors.append(derive_err)
        elif (scratch / "derived_arch.json").read_bytes() != \
                (out / "derived_arch.json").read_bytes():
            errors.append("derive on supernet.nat does not reproduce derived_arch.json")
        return 2, int(cost_code != 0) + int(derive_code != 0), errors

    def headline(self, result: PassResult) -> dict[str, tuple[float, str]]:
        steps = [s for series in result.instr.steps.values() for s in series]
        step_s = sum(s for s, _ in steps)
        images = sum(b for _, b in steps)
        return {
            "search_s": (result.phases["search"], "s"),
            "finetune_s": (result.phases["finetune"], "s"),
            "train_samples_per_s": (images / step_s, "images/s"),
        }


def kernel_grown(arch: DiscreteArchitecture, kernel: int) -> DiscreteArchitecture:
    """Same widths and depths, every kernel replaced by ``kernel``."""
    blocks = tuple(
        DerivedBlock(channels=b.channels,
                     ops=tuple(DerivedOp(kernel=kernel, expansion=op.expansion,
                                         stride=op.stride) for op in b.ops))
        for b in arch.blocks)
    return DiscreteArchitecture(input_resolution=arch.input_resolution, stem=arch.stem,
                                blocks=blocks)


def write_logits(src: Path, dst: Path, pick) -> None:
    """Copy a supernet checkpoint, replacing every alpha/beta vector v by pick(v)."""
    arrays = load_tensors(src)
    for name, value in arrays.items():
        if name.startswith(("alpha/", "beta/")):
            arrays[name] = pick(value).astype(np.float32)
    save_tensors(dst, arrays)


class Table1Adapt(Workload):
    name = "table1-adapt"
    space = "table1"
    nominal_pass_s = 22.0
    phase_layer = "cli.cmd"
    phases = ("remap_space", "derive", "cost_ckpt", "cost_arch", "remap_arch", "verify")

    def prepare(self, seed: int, out: Path) -> None:
        """Inputs the benchmark makes from the seed: a source bundle, a target."""
        out.mkdir(parents=True, exist_ok=True)
        config = load_config(self.space_path())
        source_arch = default_source_architecture(config)
        net = instantiate(source_arch, seed=seed)
        ParameterBundle(tensors={k: v.copy() for k, v in net.to_arrays().items()},
                        arch=json.loads(arch_to_json(source_arch))).save(out / "source.nat")
        save_arch(kernel_grown(source_arch, 7), out / "grown_arch.json")

    def run_pass(self, seed: int, out: Path, full: bool) -> PassResult:
        self.prepare(seed, out)
        space, s = self.space_path(), str(seed)
        src = str(out / "source.nat")
        rng = np.random.Generator(np.random.PCG64(seed))
        sequence = {
            "remap_space": ["remap", "--src", src, "--space", space, "--seed", s,
                            "--out", str(out / "supernet_init.nat"),
                            "--report", str(out / "remap_space.json")],
            "derive": ["derive", "--ckpt", str(out / "searched.nat"), "--space", space,
                       "--out", str(out / "derived_arch.json")],
            "cost_ckpt": ["cost", "--space", space, "--ckpt", str(out / "searched.nat"),
                          "--out", str(out / "cost_ckpt.json")],
            "cost_arch": ["cost", "--space", space, "--arch", str(out / "derived_arch.json"),
                          "--out", str(out / "cost_arch.json")],
            "remap_arch": ["remap", "--src", src, "--dst-arch",
                           str(out / "derived_arch.json"), "--seed", s,
                           "--out", str(out / "mapped.nat"),
                           "--report", str(out / "remap_arch.json")],
            "verify": ["verify", "--src", src, "--dst-arch", str(out / "grown_arch.json"),
                       "--samples", "1", "--seed", s, "--out", str(out / "verify.json")],
        }
        phases: dict[str, float] = {}
        errors: list[str] = []
        with count_madds() as counter, Instrumentation(full) as instr:
            for name, argv in sequence.items():
                code, elapsed, err = _cli(argv)
                phases[name] = elapsed
                if err:
                    errors.append(err)
                    break
                if name == "remap_space":  # stands in for a search: seeded logits
                    write_logits(out / "supernet_init.nat", out / "searched.nat",
                                 lambda v: rng.standard_normal(v.shape))
        result = PassResult(wall_s=sum(phases.values()), phases=phases,
                            attempted=len(phases), failed=len(errors),
                            conv_calls=counter.conv_calls, conv_madds=counter.madds,
                            instr=instr, errors=errors)
        if not errors:
            result.hashes = hash_tree(out)
            result.derived_madds = _read_json(out / "cost_arch.json")["total"]
        return result

    def check(self, out: Path, scratch: Path) -> tuple[int, int, list[str]]:
        errors = []
        report = _read_json(out / "verify.json")
        if report.get("passed") is not True:
            errors.append(f"verify did not pass: max deviation {report.get('max_deviation')}")
        scratch.mkdir(parents=True, exist_ok=True)

        def one_hot(v):
            hot = np.full(v.shape, ONE_HOT_OFF)
            hot[int(np.argmax(v))] = 0.0
            return hot

        write_logits(out / "searched.nat", scratch / "one_hot.nat", one_hot)
        code, _, err = _cli(["cost", "--space", self.space_path(),
                             "--ckpt", str(scratch / "one_hot.nat"),
                             "--out", str(scratch / "cost_one_hot.json")])
        if err:
            errors.append(err)
        else:
            expected = _read_json(scratch / "cost_one_hot.json")["total"]
            discrete = _read_json(out / "cost_arch.json")["total"]
            if abs(expected - discrete) > ONE_HOT_RTOL * discrete:
                errors.append(f"one-hot cost --ckpt {expected} differs from "
                              f"cost --arch {discrete}")
        return 1, int(code != 0), errors

    def headline(self, result: PassResult) -> dict[str, tuple[float, str]]:
        return {
            "adapt_s": (sum(v for k, v in result.phases.items() if k != "verify"), "s"),
            "verify_s": (result.phases["verify"], "s"),
        }


WORKLOADS = {w.name: w for w in (Desk3E2E(), Table1Adapt())}
