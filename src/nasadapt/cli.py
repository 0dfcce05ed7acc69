"""Command-line entry point wiring all stages together.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Every emitted
JSON document is written by ``searchspace.write_json``; nothing in the
outputs depends on wall time, so fixed seeds give bit-identical files.
"""

from __future__ import annotations

import os

# must run before numpy is first imported to take effect
_threads = os.environ.get("NAS_ADAPT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import sys
from pathlib import Path

from . import __version__
from .costmodel import (
    build_madds_table,
    expected_cost,
    expected_cost_per_block,
    madds_of_discrete,
    madds_of_discrete_per_block,
    stem_madds,
)
from .derive import (
    default_source_architecture,
    derive_architecture,
    instantiate,
    load_arch,
    save_arch,
)
from .errors import ContractError, NasAdaptError
from .paramap import (
    ParameterBundle,
    check_eps,
    check_probes,
    map_to_derived,
    map_to_supernet,
    verify_function_preservation,
)
from .searchloop import SearchSchedule, history_to_csv, search, write_csv
from .searchspace import load_config, write_json
from .seeding import seed_for
from .supernet import MASK_MODES, build_supernet, check_mask_mode, load_logits
from .toytask import (
    DatasetSpec,
    check_epochs,
    evaluate_accuracy,
    finetune,
    generate,
    load_dataset,
    save_dataset,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec(n_samples=args.samples,
                       resolution=(args.resolution, args.resolution),
                       n_classes=args.classes, seed=args.seed)
    save_dataset(generate(spec), args.out)
    return 0


def _search_stage(config, dataset, schedule, mask_mode, source, eps, out, history):
    """Search a supernet mapped from ``source`` (drawn when None); save and return it."""
    if source is None:
        net = build_supernet(config, seed=seed_for(schedule.seed, "supernet"),
                             mask_mode=mask_mode)
    else:
        mapped, _ = map_to_supernet(source, config, eps=eps, seed=seed_for(schedule.seed, "noise"))
        net = build_supernet(config, mask_mode=mask_mode, arrays=mapped.tensors)
    net, steps = search(net, dataset, schedule)
    net.save(out)
    if history is not None:
        history_to_csv(steps, history)
    return net


def _cmd_search(args) -> int:
    schedule = SearchSchedule(total_epochs=args.epochs, warmup_epochs=args.warmup,
                              lam=getattr(args, "lambda"), seed=args.seed)
    check_eps(args.eps)
    config = load_config(args.space)
    dataset = load_dataset(args.data)
    source = ParameterBundle.load(args.init_from) if args.init_from is not None else None
    _search_stage(config, dataset, schedule, args.mask_mode, source, args.eps,
                  args.out, args.history)
    return 0


def _cmd_derive(args) -> int:
    config = load_config(args.space)
    alpha, beta = load_logits(args.ckpt, config)
    save_arch(derive_architecture(alpha, beta, config), args.out)
    return 0


def _cmd_cost(args) -> int:
    config = load_config(args.space)
    if args.arch is not None:
        arch = load_arch(args.arch)
        stem = stem_madds(config)
        per_block = madds_of_discrete_per_block(arch, config)
        doc = {"kind": "discrete", "total": stem + sum(per_block), "stem": stem,
               "per_block": per_block}
    else:
        alpha, beta = load_logits(args.ckpt, config)
        table = build_madds_table(config)
        doc = {
            "kind": "expected",
            "total": float(expected_cost(alpha, beta, table).data),
            "stem": stem_madds(config),
            "per_block": [float(c.data)
                          for c in expected_cost_per_block(alpha, beta, table)],
        }
    write_json(doc, args.out)
    return 0


def _cmd_remap(args) -> int:
    check_eps(args.eps)
    source = ParameterBundle.load(args.src)
    if args.dst_arch is not None:
        target = load_arch(args.dst_arch)
        bundle, report = map_to_derived(source, target, eps=args.eps,
                                        seed=seed_for(args.seed, "noise"))
    else:
        bundle, report = map_to_supernet(source, load_config(args.space), eps=args.eps,
                                         seed=seed_for(args.seed, "noise"))
    bundle.save(args.out)
    if args.report is not None:
        report.save(args.report)
    return 0


def _cmd_verify(args) -> int:
    check_probes(args.samples, args.tol, args.seed)
    source = ParameterBundle.load(args.src)
    target_arch = load_arch(args.dst_arch)
    mapped, _ = map_to_derived(source, target_arch, eps=0.0)
    src_net = instantiate(source.arch, arrays=source.tensors)
    dst_net = instantiate(target_arch, arrays=mapped.tensors)
    del source, mapped  # each network holds its own copies
    report = verify_function_preservation(src_net, dst_net, samples=args.samples,
                                          tol=args.tol, seed=args.seed)
    write_json(report, args.out)
    if not report["passed"]:
        raise ContractError(f"function not preserved: {report['worst']} deviates by "
                            f"{report['max_deviation']}, above tol {args.tol}")
    return 0


def _finetune_stage(arch, params, dataset, epochs, seed, out, history=None):
    """Fine-tune from ``params`` (drawn when None) and save; return the bundle and the
    last loss, None after zero epochs."""
    bundle, curve = finetune(arch, params, dataset, epochs=epochs, seed=seed)
    bundle.save(out)
    if history is not None:
        write_csv(history, ["epoch", "loss"], enumerate(curve, 1))
    return bundle, curve[-1] if curve else None


def _cmd_finetune(args) -> int:
    arch = load_arch(args.arch)
    dataset = load_dataset(args.data)
    params = ParameterBundle.load(args.params) if args.params is not None else None
    bundle, final_loss = _finetune_stage(arch, params, dataset, args.epochs,
                                         seed_for(args.seed, "finetune"), args.out, args.history)
    write_json({"final_loss": final_loss, "epochs": args.epochs,
                "train_accuracy": evaluate_accuracy(arch, bundle, dataset)}, None)
    return 0


def end_to_end(space_path, seed: int, out_dir, samples: int = 256,
               epochs: int = 14, warmup: int = 8, lam: float = 0.1,
               pretrain_epochs: int = 8, finetune_epochs: int = 10, eps: float = 1e-5,
               mask_mode: str = "non_overlapping") -> dict:
    """Generate data, pretrain a source, map, search, derive, remap, fine-tune.

    Every argument is checked before anything is written. Returns the
    summary document; all artifacts land in ``out_dir``.
    """
    config = load_config(space_path)
    schedule = SearchSchedule(total_epochs=epochs, warmup_epochs=warmup, lam=lam,
                              seed=seed)
    check_eps(eps)
    check_epochs(pretrain_epochs, "pretrain epochs")
    check_epochs(finetune_epochs, "finetune epochs")
    check_mask_mode(mask_mode)
    dataset = generate(DatasetSpec(n_samples=samples, seed=seed_for(seed, "data")))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "data.nat")

    source_arch = default_source_architecture(config)
    source_bundle, source_loss = _finetune_stage(source_arch, None, dataset, pretrain_epochs,
                                                 seed_for(seed, "source"), out / "source.nat")

    net = _search_stage(config, dataset, schedule, mask_mode, source_bundle, eps,
                        out / "supernet.nat", out / "history.csv")
    arch = derive_architecture(net.alpha, net.beta, config)
    save_arch(arch, out / "derived_arch.json")

    mapped, report = map_to_derived(source_bundle, arch, eps=eps,
                                    seed=seed_for(seed, "noise"))
    report.save(out / "remap_report.json")
    final_bundle, final_loss = _finetune_stage(arch, mapped, dataset, finetune_epochs,
                                               seed_for(seed, "finetune"), out / "derived.nat")

    # paths are relative to out_dir so equal-seed runs emit identical bytes
    summary = {
        "source_madds": madds_of_discrete(source_arch, config),
        "derived_madds": madds_of_discrete(arch, config),
        "final_loss": final_loss,
        "train_accuracy": evaluate_accuracy(arch, final_bundle, dataset),
        "history_path": "history.csv",
        "arch_path": "derived_arch.json",
        "source_pretrain_loss": source_loss,
        "seed": seed,
        "lambda": lam,
        "meta": {"version": __version__},
    }
    write_json(summary, out / "summary.json")
    return summary


def _cmd_e2e(args) -> int:
    write_json(end_to_end(args.space, args.seed, args.out_dir, samples=args.samples,
                          epochs=args.epochs, warmup=args.warmup,
                          lam=getattr(args, "lambda"), pretrain_epochs=args.pretrain_epochs,
                          finetune_epochs=args.finetune_epochs, eps=args.eps,
                          mask_mode=args.mask_mode), None)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nasadapt",
                     description="Differentiable backbone adaptation at desk scale")
    parser.add_argument("--version", action="version", version=f"nasadapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags `search` and `e2e` share; their defaults are end_to_end's
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--space", required=True, help="search-space JSON")
    shared.add_argument("--seed", type=int, default=0, help="global seed")
    shared.add_argument("--epochs", type=int, default=14,
                        help="search epochs (default 14)")
    shared.add_argument("--warmup", type=int, default=8,
                        help="weight-only warm-up epochs (default 8)")
    shared.add_argument("--lambda", type=float, default=0.1,
                        help="cost regularization strength (default 0.1)")
    shared.add_argument("--eps", type=float, default=1e-5,
                        help="mapping noise amplitude; search maps only with "
                             "--init-from (default 1e-5)")
    shared.add_argument("--mask-mode", choices=MASK_MODES, default="non_overlapping",
                        help="channel mask variant (default non_overlapping)")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--samples", type=int, default=256, help="number of samples")
    p.add_argument("--resolution", type=int, default=32, help="square image size")
    p.add_argument("--classes", type=int, default=4, help="number of shape classes")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    p.add_argument("--out", required=True, help="output container path (.nat)")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("search", parents=[shared],
                       help="train the supernet with the bi-level schedule")
    p.add_argument("--data", required=True, help="dataset container (.nat)")
    p.add_argument("--init-from", help="source bundle (.nat, with its .arch.json "
                                       "sidecar) to map onto the supernet first")
    p.add_argument("--out", required=True, help="output supernet checkpoint (.nat)")
    p.add_argument("--history", help="per-step history CSV path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("derive", help="collapse a supernet checkpoint by argmax")
    p.add_argument("--ckpt", required=True, help="supernet checkpoint (.nat)")
    p.add_argument("--space", required=True, help="search-space JSON")
    p.add_argument("--out", required=True, help="architecture JSON output")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("cost", help="multiply-add cost of an architecture or supernet")
    p.add_argument("--space", required=True, help="search-space JSON")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--arch", help="discrete architecture JSON")
    one.add_argument("--ckpt", help="supernet checkpoint for expected cost")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("remap", help="map a source bundle onto an architecture or supernet")
    p.add_argument("--src", required=True,
                   help="source parameter bundle (.nat, with its .arch.json sidecar)")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--dst-arch", help="target discrete architecture JSON")
    one.add_argument("--space", help="target search space (writes a supernet checkpoint "
                                     "with zero logits)")
    p.add_argument("--eps", type=float, default=1e-5,
                   help="noise amplitude on zero-assigned entries (default 1e-5)")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--out", required=True, help="output bundle/checkpoint (.nat)")
    p.add_argument("--report", help="mapping report JSON path")
    p.set_defaults(func=_cmd_remap)

    p = sub.add_parser("verify", help="check function preservation of a mapping")
    p.add_argument("--src", required=True,
                   help="source parameter bundle (.nat, with its .arch.json sidecar)")
    p.add_argument("--dst-arch", required=True, help="target architecture JSON")
    p.add_argument("--samples", type=int, default=16,
                   help="random probe inputs, at least 1 (default 16)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="max deviation tolerance, a finite number >= 0 (default 1e-5)")
    p.add_argument("--seed", type=int, default=0, help="probe seed")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("finetune", help="train a discrete architecture on the toy task")
    p.add_argument("--arch", required=True, help="architecture JSON")
    p.add_argument("--data", required=True, help="dataset container (.nat)")
    p.add_argument("--params", help="initial parameter bundle (.nat)")
    p.add_argument("--epochs", type=int, default=10, help="training epochs (default 10)")
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--out", required=True, help="output parameter bundle (.nat)")
    p.add_argument("--history", help="per-epoch loss CSV path")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("e2e", parents=[shared],
                       help="full pipeline: data, pretrain, search, derive, remap, finetune")
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--samples", type=int, default=256, help="dataset size (default 256)")
    p.add_argument("--pretrain-epochs", type=int, default=8,
                   help="source pretraining epochs (default 8)")
    p.add_argument("--finetune-epochs", type=int, default=10,
                   help="final fine-tuning epochs (default 10)")
    p.set_defaults(func=_cmd_e2e)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NasAdaptError, OSError, KeyError, ValueError, MemoryError) as exc:
        print(f"nasadapt: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
