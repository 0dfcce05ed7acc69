"""Benchmark of the nasadapt pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk3-e2e --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` runs untraced passes and reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
a readable table and a ``{"record": ...}`` line with the environment, the
work done and the derived architecture. The exit code is 0 when every
operation and check passed, 1 when one failed, 2 when the sources are
missing. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
THREADS = "1"  # BLAS threads: 1 costs nothing at these sizes and removes scheduler noise
THREAD_VARS = ("NAS_ADAPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("desk3-e2e", "table1-adapt")
SETUP_STARTS = 3  # timed set-ups before the first pass and after each pass
SETUP_CODE = ("import numpy, nasadapt.cli, nasadapt.searchspace as s; "
              "s.load_config({path!r})")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description="nasadapt benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True, help="workload input seed")
    p.add_argument("--seconds", type=int, required=True,
                   help="run length; sets the number of untraced passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced pass")
    return p.parse_args(argv)


def git_rev() -> str:
    """Commit of ROOT when it is a git checkout; never of an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "NAS_ADAPT_THREADS": os.environ.get("NAS_ADAPT_THREADS"),
        "git_rev": git_rev(),
        "machine": platform.machine(),
    }


def measure_setup(space_path: str, starts: int) -> list[float]:
    """Seconds for fresh interpreters to import numpy and nasadapt and load the space."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE.format(path=space_path)]
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit every 50 ms,
        # which would round every sample up to that grid
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def print_table(workload: str, rows: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in rows.items():
        print(f"# {workload:13s} {name:36s} {value:>16.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                rows: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}})


def run_one(args) -> int:
    from metrics import end_to_end, per_layer, tail_percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    errors: list[str] = []
    attempted = failed = 0
    setup: list[float] = []

    def sample_setup(starts: int) -> list[float]:
        try:
            return measure_setup(workload.space_path(), starts)
        except (subprocess.SubprocessError, OSError) as exc:
            errors.append(f"set-up interpreter failed: {exc}")
            return []

    # The first start writes the byte-code caches, which users pay once. Timed
    # starts follow it and each pass, so the median sees more than one moment
    # of a machine whose speed drifts over seconds.
    if not sample_setup(1):
        print(f"perfbench: {errors[0]}", file=sys.stderr)
        return 1
    if not args.trace:
        setup += sample_setup(SETUP_STARTS)

    passes = []
    for i in range(1 if args.trace else workload.passes_for(args.seconds)):
        out = work / f"pass{i}"
        res = workload.run_pass(args.seed, out, full=False)
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        if res.errors:
            break
        if passes and res.hashes != passes[0].hashes:
            errors.append(f"pass {i} artifacts differ from pass 0 with the same seed")
        if not passes:
            ran, bad, check_errors = workload.check(out, work / "check")
            attempted += ran
            failed += bad
            errors += check_errors
        passes.append(res)
        shutil.rmtree(out)
        if not args.trace:
            setup += sample_setup(SETUP_STARTS)

    traced = None
    if args.trace and not errors:
        traced = workload.run_pass(args.seed, work / "traced", full=True)
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors
        if not traced.errors:
            if traced.hashes != passes[0].hashes:
                errors.append("traced artifacts differ from untraced ones with the same seed")
            ins = traced.instr
            if (sum(ins.conv_calls.values()), sum(ins.conv_madds.values())) != \
                    (traced.conv_calls, traced.conv_madds):
                errors.append("traced per-kind conv calls/madds do not sum to count_madds()")
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only when no other workload is using it
    except OSError:
        pass

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "errors": errors,
              "setup_samples_s": setup, "pass_wall_s": [p.wall_s for p in passes]}
    rows: dict[str, tuple[float, str]] = {}
    if passes:
        first = passes[0]
        record["work"] = {"conv_calls": first.conv_calls, "conv_madds": first.conv_madds,
                          "derived_madds": first.derived_madds,
                          "derived_arch_sha256": first.derived_arch_sha256,
                          "artifacts": len(first.hashes)}
        record["pass_phases_s"] = [p.phases for p in passes]
        if args.trace:
            if traced is not None and not traced.errors:
                rows = per_layer(workload, traced, first.wall_s)
                record["tail_percentiles"] = {series: tail_percentile(len(steps))
                                              for series, steps in traced.instr.steps.items()}
        elif setup:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rows = end_to_end(passes, setup, peak_rss_mb)
            headline = [workload.headline(p) for p in passes]
            record["headline"] = {k: (statistics.median(h[k][0] for h in headline),
                                      headline[0][k][1]) for k in headline[0]}
    correct = not errors and failed == 0
    table = dict(rows)
    table.update(record.get("headline", {}))
    print_table(workload.name, table)
    for err in errors:
        print(f"# {workload.name} FAILED: {err}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(result_line(correct, max(attempted, 1), failed, rows))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS stays per workload."""
    correct, attempted, failed, rows = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows.update({f"{name}.{k}": (v["value"], v["unit"])
                     for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, rows))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nasadapt" / "__init__.py").is_file():
        print(f"perfbench: no nasadapt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    # pinned before numpy is first imported, in this process and its children
    os.environ.update({var: THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import nasadapt

    if SRC.resolve() not in Path(nasadapt.__file__).resolve().parents:
        print(f"perfbench: imported nasadapt from {nasadapt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
