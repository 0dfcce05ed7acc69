"""CLI wiring: subcommands, exit codes, artifact round trips."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nasadapt
import nasadapt.cli as cli
import nasadapt.layers as layers
from nasadapt.cli import build_parser, end_to_end, main
from nasadapt.costmodel import build_madds_table, expected_cost, expected_cost_per_block
from nasadapt.derive import (
    arch_to_doc,
    default_source_architecture,
    derive_architecture,
    instantiate,
)
from nasadapt.errors import ParameterError
from nasadapt.numerics.container import load_tensors, save_tensors
from nasadapt.searchloop import SearchSchedule
from nasadapt.searchspace import bundled_config_path, json_text, load_bundled_config, load_config
from nasadapt.seeding import seed_for
from nasadapt.supernet import Supernet, build_supernet

from helpers import write_raw_container


def run_cli_process(argv):
    """Run the CLI in a child process, as a shell would."""
    src = str(Path(nasadapt.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "nasadapt.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# sidecars that parse and fit their arrays, but describe no dataset gen-data could make
DATASET_RULE_CASES = ("zero-samples", "one-class", "small-resolution", "negative-seed")
SIDECAR_CASES = ("resolution-int", "list", "more-samples", "classes-string", *DATASET_RULE_CASES)


def assert_one_line_error(code, stderr):
    assert code == 2
    assert "Traceback" not in stderr
    assert stderr.startswith("nasadapt: error:")
    assert stderr.count("\n") == 1


@pytest.fixture(scope="module")
def space_path():
    return str(bundled_config_path("desk3"))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, space_path):
    """One shared tiny pipeline run: data -> search -> derive -> finetune."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.nat"
    assert main(["gen-data", "--samples", "48", "--seed", "3",
                 "--out", str(data)]) == 0
    ckpt = root / "supernet.nat"
    history = root / "history.csv"
    assert main(["search", "--space", space_path, "--data", str(data),
                 "--epochs", "2", "--warmup", "1", "--lambda", "0.1",
                 "--seed", "3", "--out", str(ckpt),
                 "--history", str(history)]) == 0
    arch = root / "arch.json"
    assert main(["derive", "--ckpt", str(ckpt), "--space", space_path,
                 "--out", str(arch)]) == 0
    return {"root": root, "data": data, "ckpt": ckpt, "history": history, "arch": arch}


class TestUsage:
    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["cost"]) == 1
        err = capsys.readouterr().err
        assert "--space" in err

    def test_unknown_flag_exits_1(self, capsys, space_path):
        assert main(["cost", "--space", space_path, "--arch", "arch.json", "--warp", "9"]) == 1
        assert "--warp" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("search", "derive", "remap", "cost", "verify", "finetune",
                    "gen-data", "e2e"):
            assert sub in out

    def test_subcommand_help_lists_flags(self, capsys):
        assert main(["search", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--space", "--data", "--epochs", "--warmup", "--lambda",
                     "--seed", "--out", "--history"):
            assert flag in out

    @pytest.mark.parametrize("argv", [
        "search --space s.json --data d.nat --out o.nat --batch-size 8",
        "search --space s.json --data d.nat --out o.nat --init-from b.nat --init-arch a.json",
        "remap --src b.nat --dst-arch a.json --out o.nat --src-arch a.json",
        "verify --src b.nat --dst-arch a.json --src-arch a.json",
        "finetune --arch a.json --data d.nat --out o.nat --lr 0.05",
        "finetune --arch a.json --data d.nat --out o.nat --batch-size 16",
        "e2e --space s.json --out-dir o --batch-size 8",
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        # batch sizes, the fine-tune lr and a bundle's architecture are not settable
        assert main(argv.split()) == 1
        flag = [a for a in argv.split() if a.startswith("--")][-1]
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("cost --space s.json", "one of the arguments --arch --ckpt is required"),
        ("cost --space s.json --arch a.json --ckpt c.nat",
         "argument --ckpt: not allowed with argument --arch"),
        ("remap --src b.nat --dst-arch a.json --space s.json --out o.nat",
         "argument --space: not allowed with argument --dst-arch"),
    ], ids=["cost-neither", "cost-both", "remap-both"])
    def test_input_choice_checked_before_any_file_is_read(self, capsys, monkeypatch,
                                                          tmp_path, argv, message):
        # no named file exists: reading any of them would exit 2
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_e2e_defaults_are_end_to_end_defaults(self):
        # `nasadapt e2e` and a bare end_to_end() call run the same pipeline
        args = vars(build_parser().parse_args(["e2e", "--space", "S", "--out-dir", "D"]))
        defaults = {("lambda" if name == "lam" else name): p.default
                    for name, p in inspect.signature(end_to_end).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert {name: args[name] for name in defaults} == defaults

    def test_search_defaults_are_schedule_defaults(self):
        args = vars(build_parser().parse_args(
            ["search", "--space", "S", "--data", "D", "--out", "O"]))
        flag = {"total_epochs": "epochs", "warmup_epochs": "warmup", "lam": "lambda"}
        defaults = {flag.get(f.name, f.name): f.default
                    for f in dataclasses.fields(SearchSchedule)}
        assert {name: args[name] for name in defaults} == defaults

    def test_runtime_failure_exits_2(self, capsys, tmp_path, space_path):
        missing = tmp_path / "nothing.nat"
        assert main(["search", "--space", space_path, "--data", str(missing),
                     "--out", str(tmp_path / "x.nat")]) == 2

    def test_malformed_container_exits_2_without_traceback(self, tmp_path, space_path):
        bad = tmp_path / "bad.nat"
        write_raw_container(bad, {"name": "alpha/0/0", "dtype": "f32", "shape": [2.5]})
        proc = run_cli_process(["derive", "--ckpt", str(bad), "--space", space_path,
                                "--out", str(tmp_path / "arch.json")])
        assert_one_line_error(proc.returncode, proc.stderr)

    def test_finetune_out_of_range_arch_exits_2_without_traceback(self, tmp_path,
                                                                   space_path):
        doc = arch_to_doc(default_source_architecture(load_bundled_config("desk3")))
        doc["blocks"][0]["ops"][0]["expansion"] = 0
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(doc))
        proc = run_cli_process(["finetune", "--arch", str(arch),
                                "--data", str(tmp_path / "data.nat"),
                                "--out", str(tmp_path / "out.nat")])
        assert_one_line_error(proc.returncode, proc.stderr)
        assert "blocks[0].ops[0].expansion" in proc.stderr

    @staticmethod
    def bad_dataset(tmp_path, case):
        """A dataset container whose sidecar breaks one rule; the four rule
        cases hold arrays that fit the sidecar, so only the rule rejects them."""
        data = tmp_path / "data.nat"
        assert main(["gen-data", "--samples", "16", "--out", str(data)]) == 0
        sidecar = data.with_suffix(".json")
        doc = json.loads(sidecar.read_text())
        doc = {"resolution-int": {**doc, "resolution": 32},
               "list": [doc],
               "more-samples": {**doc, "n_samples": 64},
               "classes-string": {**doc, "n_classes": "4"},
               "zero-samples": {**doc, "n_samples": 0},
               "one-class": {**doc, "n_classes": 1},
               "small-resolution": {**doc, "resolution": [8, 8]},
               "negative-seed": {**doc, "seed": -1}}[case]
        if case in DATASET_RULE_CASES:
            n, (h, w) = doc["n_samples"], doc["resolution"]
            save_tensors(data, {"images": np.zeros((n, 3, h, w), dtype=np.float32),
                                "labels": np.arange(n, dtype=np.float32) % doc["n_classes"]})
        sidecar.write_text(json.dumps(doc))
        return data

    @pytest.mark.parametrize("case", SIDECAR_CASES)
    def test_bad_dataset_sidecar_exits_2_without_traceback(self, tmp_path, space_path,
                                                           case):
        data = self.bad_dataset(tmp_path, case)
        proc = run_cli_process(["search", "--space", space_path, "--data", str(data),
                                "--out", str(tmp_path / "supernet.nat")])
        assert_one_line_error(proc.returncode, proc.stderr)

    @pytest.mark.parametrize("case", SIDECAR_CASES)
    def test_finetune_rejects_bad_dataset_sidecar_before_writing(self, capsys, tmp_path,
                                                                 case):
        data = self.bad_dataset(tmp_path, case)
        capsys.readouterr()
        arch = tmp_path / "arch.json"
        arch.write_text(json_text(arch_to_doc(
            default_source_architecture(load_bundled_config("desk3")))))
        out = tmp_path / "out.nat"
        code = main(["finetune", "--arch", str(arch), "--data", str(data), "--epochs", "0",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert not out.exists()
        if case in DATASET_RULE_CASES:
            assert f"{data.with_suffix('.json')}:$: " in err


class TestArtifacts:
    def test_history_columns(self, artifacts):
        lines = artifacts["history"].read_text().strip().splitlines()
        assert lines[0] == "step,epoch,phase,model_loss,expected_cost,total_loss"
        assert len(lines) > 1

    def test_history_files_share_one_dialect(self, artifacts, tmp_path):
        curve = tmp_path / "curve.csv"
        assert main(["finetune", "--arch", str(artifacts["arch"]),
                     "--data", str(artifacts["data"]), "--epochs", "1",
                     "--out", str(tmp_path / "final.nat"), "--history", str(curve)]) == 0
        assert curve.read_bytes().startswith(b"epoch,loss\r\n")
        for path in (artifacts["history"], curve):
            data = path.read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")

    def test_cost_discrete_stdout(self, capsys, artifacts, space_path):
        assert main(["cost", "--space", space_path,
                     "--arch", str(artifacts["arch"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "discrete"
        assert doc["total"] > 0
        assert len(doc["per_block"]) == 3
        assert doc["total"] == doc["stem"] + sum(doc["per_block"])

    def test_cost_expected_ckpt(self, capsys, artifacts, space_path):
        assert main(["cost", "--space", space_path,
                     "--ckpt", str(artifacts["ckpt"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "expected"
        assert doc["total"] > 0

    def test_cost_on_widest_space(self, capsys, tmp_path):
        from nasadapt.derive import default_source_architecture, save_arch
        from nasadapt.searchspace import load_bundled_config

        table1 = str(bundled_config_path("table1"))
        source = tmp_path / "source.json"
        save_arch(default_source_architecture(load_bundled_config("table1")), source)
        assert main(["cost", "--space", table1, "--arch", str(source)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["per_block"]) == 6
        assert doc["total"] > 1e9  # billions of multiply-adds at 800x1088

    def test_cost_requires_exactly_one_input(self, artifacts, space_path):
        assert main(["cost", "--space", space_path]) == 1
        assert main(["cost", "--space", space_path, "--arch", str(artifacts["arch"]),
                     "--ckpt", str(artifacts["ckpt"])]) == 1

    def test_finetune_and_remap_verify(self, capsys, artifacts, space_path, tmp_path):
        root = artifacts["root"]
        source = root / "source.nat"
        assert main(["finetune", "--arch", str(artifacts["arch"]),
                     "--data", str(artifacts["data"]), "--epochs", "1",
                     "--seed", "1", "--out", str(source)]) == 0
        capsys.readouterr()
        # remap onto a widened-kernel variant of the same architecture: the
        # first block's kernels grow by 2, whichever the search derived
        target = json.loads(artifacts["arch"].read_text())
        for op in target["blocks"][0]["ops"]:
            op["kernel"] += 2
        target_path = root / "target.json"
        target_path.write_text(json.dumps(target))
        mapped = root / "mapped.nat"
        report = root / "report.json"
        assert main(["remap", "--src", str(source), "--dst-arch", str(target_path),
                     "--eps", "0", "--out", str(mapped),
                     "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert any("kernel-embed" in e["rules"] for e in rep["entries"])
        assert main(["verify", "--src", str(source),
                     "--dst-arch", str(target_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_remap_onto_supernet(self, artifacts, space_path):
        root = artifacts["root"]
        source = root / "source.nat"
        out = root / "mapped_supernet.nat"
        assert main(["remap", "--src", str(source), "--space", space_path,
                     "--eps", "1e-5", "--seed", "2", "--out", str(out)]) == 0
        # a complete checkpoint of the space, in the order a supernet writes one
        written = load_tensors(out)
        arrays = build_supernet(load_config(space_path), arrays=written).to_arrays()
        assert list(written) == list(arrays)
        for name, arr in arrays.items():
            assert written[name].tobytes() == arr.tobytes(), name

    def test_remap_onto_supernet_builds_no_supernet(self, artifacts, space_path,
                                                    monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("remap --space built a supernet")

        monkeypatch.setattr(Supernet, "__init__", refuse)
        out = tmp_path / "mapped_supernet.nat"
        assert main(["remap", "--src", str(artifacts["root"] / "source.nat"),
                     "--space", space_path, "--seed", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == (artifacts["root"] / "mapped_supernet.nat").read_bytes()


@pytest.fixture(scope="module")
def mismatched_checkpoints(artifacts, space_path):
    """(checkpoint, space) pairs whose logits are not exactly the space's."""
    root = artifacts["root"]
    extra = root / "extra_alpha.nat"
    save_tensors(extra, {**load_tensors(artifacts["ckpt"]),
                         "alpha/0/9": np.zeros(3, dtype=np.float32)})
    bundle = root / "bundle.nat"
    source = instantiate(default_source_architecture(load_bundled_config("desk3")), seed=0)
    save_tensors(bundle, source.to_arrays())
    return {"other-space": (artifacts["ckpt"], str(bundled_config_path("table1"))),
            "parameter-bundle": (bundle, space_path),
            "extra-alpha": (extra, space_path)}


class TestCheckpointLogits:
    @pytest.mark.parametrize("case", ["other-space", "parameter-bundle", "extra-alpha"])
    @pytest.mark.parametrize("command", ["derive", "cost"])
    def test_mismatch_exits_2_with_one_line(self, capsys, tmp_path, mismatched_checkpoints,
                                            command, case):
        ckpt, space = mismatched_checkpoints[case]
        out = tmp_path / "out.json"
        code = main([command, "--ckpt", str(ckpt), "--space", space, "--out", str(out)])
        assert_one_line_error(code, capsys.readouterr().err)
        assert not out.exists()

    def test_derive_and_cost_match_a_loaded_supernet(self, capsys, artifacts, space_path):
        # the former path of both commands: build the supernet, load the checkpoint
        config = load_config(space_path)
        net = build_supernet(config, arrays=load_tensors(artifacts["ckpt"]))
        assert any(np.any(v.data != 0) for v in net.arch_params())
        assert artifacts["arch"].read_text() == \
            json_text(arch_to_doc(derive_architecture(net.alpha, net.beta, config))) + "\n"
        table = build_madds_table(config)
        assert main(["cost", "--space", space_path, "--ckpt", str(artifacts["ckpt"])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == float(expected_cost(net.alpha, net.beta, table).data)
        assert doc["per_block"] == \
            [float(c.data) for c in expected_cost_per_block(net.alpha, net.beta, table)]


@pytest.fixture(scope="module")
def from_arrays_inputs(artifacts):
    """A source bundle, a kernel-grown target and the source mapped onto it."""
    root = artifacts["root"] / "from_arrays"
    root.mkdir()
    source = root / "source.nat"
    assert main(["finetune", "--arch", str(artifacts["arch"]), "--data",
                 str(artifacts["data"]), "--epochs", "0", "--seed", "6",
                 "--out", str(source)]) == 0
    target = json.loads(artifacts["arch"].read_text())
    for op in target["blocks"][1]["ops"]:
        op["kernel"] = 5
    target_path = root / "target.json"
    target_path.write_text(json.dumps(target))
    mapped = root / "mapped.nat"
    assert main(["remap", "--src", str(source), "--dst-arch", str(target_path),
                 "--eps", "1e-4", "--out", str(mapped)]) == 0
    return {"source": source, "target": target_path, "mapped": mapped}


class TestBuiltFromArrays:
    def test_draws_no_init(self, capsys, monkeypatch, tmp_path, artifacts, space_path,
                           from_arrays_inputs):
        def run(out):
            out.mkdir()
            inputs = {k: str(v) for k, v in from_arrays_inputs.items()}
            assert main(["search", "--space", space_path, "--data", str(artifacts["data"]),
                         "--init-from", inputs["source"], "--epochs", "1",
                         "--warmup", "0", "--seed", "5", "--out", str(out / "supernet.nat"),
                         "--history", str(out / "history.csv")]) == 0
            assert main(["verify", "--src", inputs["source"], "--dst-arch",
                         inputs["target"], "--samples", "2",
                         "--out", str(out / "verify.json")]) == 0
            assert main(["finetune", "--arch", inputs["target"], "--data",
                         str(artifacts["data"]), "--params", inputs["mapped"],
                         "--epochs", "1", "--seed", "2", "--out", str(out / "tuned.nat")]) == 0
            (out / "finetune.json").write_text(capsys.readouterr().out)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        expected = run(tmp_path / "drawing")

        def refuse(*args, **kwargs):
            raise AssertionError("a network given its tensors drew a fresh init")

        # every network weight's init is drawn by layers.trunc_normal; the proxy
        # head keeps toytask's own reference, since no bundle here carries a head
        monkeypatch.setattr(layers, "trunc_normal", refuse)
        got = run(tmp_path / "from_arrays")
        assert list(got) == list(expected)
        for name, data in expected.items():
            assert got[name] == data, name

    @pytest.mark.parametrize("edit", ["missing", "wrong-shape"])
    def test_bad_params_bundle_exits_2_without_traceback(self, tmp_path, artifacts,
                                                         from_arrays_inputs, edit):
        tensors = load_tensors(from_arrays_inputs["mapped"])
        name = "block1/layer0/depthwise/weight"
        if edit == "missing":
            del tensors[name]
        else:
            tensors[name] = tensors[name][:, :, 1:-1, 1:-1].copy()
        bad = tmp_path / "bad.nat"
        save_tensors(bad, tensors)
        proc = run_cli_process(["finetune", "--arch", str(from_arrays_inputs["target"]),
                                "--data", str(artifacts["data"]), "--params", str(bad),
                                "--epochs", "1", "--out", str(tmp_path / "tuned.nat")])
        assert_one_line_error(proc.returncode, proc.stderr)
        assert f"'{name}'" in proc.stderr
        assert not (tmp_path / "tuned.nat").exists()


class TestEndToEnd:
    def test_pipeline_artifacts_and_determinism(self, tmp_path, space_path):
        def run(name):
            out = tmp_path / name
            assert main(["e2e", "--space", space_path, "--seed", "7",
                         "--out-dir", str(out), "--samples", "48",
                         "--epochs", "2", "--warmup", "1",
                         "--pretrain-epochs", "1", "--finetune-epochs", "1"]) == 0
            return out

        first = run("one")
        summary = json.loads((first / "summary.json").read_text())
        for key in ("source_madds", "derived_madds", "final_loss", "history_path"):
            assert key in summary
        assert summary["source_madds"] > 0
        assert summary["derived_madds"] <= summary["source_madds"]
        for artifact in ("data.nat", "source.nat", "supernet.nat",
                         "derived_arch.json", "derived.nat", "history.csv",
                         "remap_report.json"):
            assert (first / artifact).exists(), artifact
        second = run("two")
        assert (first / "summary.json").read_bytes() == \
            (second / "summary.json").read_bytes()
        assert (first / "derived.nat").read_bytes() == \
            (second / "derived.nat").read_bytes()

    def test_e2e_is_its_subcommands(self, tmp_path, space_path):
        # gen-data, search --init-from, derive, remap and finetune on e2e's
        # seeds, data and source write e2e's bytes
        e2e, chain = tmp_path / "e2e", tmp_path / "chain"
        assert main(["e2e", "--space", space_path, "--seed", "3", "--out-dir", str(e2e),
                     "--samples", "64", "--epochs", "2", "--warmup", "1",
                     "--pretrain-epochs", "1", "--finetune-epochs", "1"]) == 0
        chain.mkdir()
        data, arch = str(e2e / "data.nat"), str(chain / "derived_arch.json")
        for argv in (
                ["gen-data", "--samples", "64", "--seed", str(seed_for(3, "data")),
                 "--out", str(chain / "data.nat")],
                ["search", "--space", space_path, "--data", data, "--init-from",
                 str(e2e / "source.nat"), "--epochs", "2", "--warmup", "1", "--seed", "3",
                 "--out", str(chain / "supernet.nat"), "--history", str(chain / "history.csv")],
                ["derive", "--ckpt", str(chain / "supernet.nat"), "--space", space_path,
                 "--out", arch],
                ["remap", "--src", str(e2e / "source.nat"), "--dst-arch", arch, "--seed", "3",
                 "--out", str(chain / "remapped.nat"),
                 "--report", str(chain / "remap_report.json")],
                ["finetune", "--arch", arch, "--data", data, "--params",
                 str(chain / "remapped.nat"), "--epochs", "1", "--seed", "3",
                 "--out", str(chain / "derived.nat")]):
            assert main(argv) == 0, argv[0]
        for name in ("data.nat", "data.json", "supernet.nat", "history.csv",
                     "derived_arch.json", "remap_report.json", "derived.nat",
                     "derived.arch.json"):
            assert (chain / name).read_bytes() == (e2e / name).read_bytes(), name

    def test_stage_order_perfbench_reads(self, tmp_path, space_path, monkeypatch):
        # perfbench/instrument.py marks e2e's stages by patching these names on
        # the cli module, and its desk3-e2e workload fails a pass that does not
        # see the stages in this order; the test goes when in-program spans
        # replace the patching (ROADMAP item 2)
        names = ("generate", "default_source_architecture", "finetune", "map_to_supernet",
                 "build_supernet", "search", "derive_architecture", "map_to_derived",
                 "evaluate_accuracy")
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        end_to_end(space_path, 3, tmp_path, samples=16, epochs=1, warmup=0,
                   pretrain_epochs=1, finetune_epochs=1)
        assert calls == ["generate", "default_source_architecture", "finetune",
                         "map_to_supernet", "build_supernet", "search",
                         "derive_architecture", "map_to_derived", "finetune",
                         "evaluate_accuracy"]


class TestDeterminism:
    def test_gen_data_reproducible(self, tmp_path):
        a, b = tmp_path / "a.nat", tmp_path / "b.nat"
        assert main(["gen-data", "--samples", "16", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen-data", "--samples", "16", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_search_reproducible(self, tmp_path, space_path):
        data = tmp_path / "d.nat"
        assert main(["gen-data", "--samples", "32", "--seed", "4",
                     "--out", str(data)]) == 0
        outs = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.nat"
            assert main(["search", "--space", space_path, "--data", str(data),
                         "--epochs", "1", "--warmup", "0", "--seed", "4",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def broken(artifacts, from_arrays_inputs, space_path):
    """Valid inputs plus one broken variant of each kind a command reads."""
    root = artifacts["root"] / "broken"
    root.mkdir()
    source = from_arrays_inputs["source"]
    sidecar = source.with_suffix(".arch.json")

    def copy(src, name, cut=False):
        data = src.read_bytes()
        (root / name).write_bytes(data[:len(data) // 2] if cut else data)
        return root / name

    malformed = '{"v": 1, "blocks": ['
    paths = {
        "data": artifacts["data"], "ckpt": artifacts["ckpt"], "arch": artifacts["arch"],
        "source": source, "target": from_arrays_inputs["target"],
        "trunc_data": copy(artifacts["data"], "trunc_data.nat", cut=True),
        "trunc_ckpt": copy(artifacts["ckpt"], "trunc_ckpt.nat", cut=True),
        "trunc_src": copy(source, "trunc_src.nat", cut=True),
        "no_sidecar": copy(source, "no_sidecar.nat"),
        "missing_tensor": root / "missing_tensor.nat",
        "bad_json": root / "bad.json",
        "bad_utf8": root / "bad_utf8.json",
        "bad_data_sidecar": copy(artifacts["data"], "bad_data.nat"),
        "bad_arch_sidecar": copy(source, "bad_sidecar.nat"),
    }
    copy(artifacts["data"].with_suffix(".json"), "trunc_data.json")
    copy(sidecar, "trunc_src.arch.json")
    tensors = load_tensors(source)
    del tensors["block1/layer0/depthwise/weight"]
    save_tensors(paths["missing_tensor"], tensors)
    copy(sidecar, "missing_tensor.arch.json")
    # one NaN weight: without a check, verify passes it with max deviation 0.0
    tensors = load_tensors(source)
    tensors["block1/layer0/depthwise/weight"][0, 0, 1, 1] = np.nan
    paths["nan_src"] = root / "nan_src.nat"
    save_tensors(paths["nan_src"], tensors)
    copy(sidecar, "nan_src.arch.json")
    paths["bad_json"].write_text(malformed)
    paths["bad_utf8"].write_bytes(b'{"v": 1, "name": "\xff"}')
    (root / "bad_data.json").write_text(malformed)
    (root / "bad_sidecar.arch.json").write_text(malformed)

    def edited(src, name, edit):
        doc = json.loads(src.read_text())
        edit(doc)
        (root / name).write_text(json.dumps(doc))
        return root / name

    # one field out of range in each kind of document
    paths["bad_space"] = edited(Path(space_path), "bad_space.json",
                                lambda d: d["blocks"][0].update(stride=3))
    paths["bad_arch"] = edited(artifacts["arch"], "bad_arch.json",
                               lambda d: d["blocks"][0]["ops"][0].update(expansion=0))
    paths["bad_res_data"] = copy(artifacts["data"], "bad_res.nat")
    edited(artifacts["data"].with_suffix(".json"), "bad_res.json",
           lambda d: d.update(resolution=[0, 32]))
    # a target whose block 0 changes resolution where the source's does not
    paths["stride_target"] = edited(
        sidecar, "stride_target.json",
        lambda d: d["blocks"][0]["ops"][-1].update(stride=3 - d["blocks"][0]["ops"][-1]["stride"]))
    # a valid desk3 architecture at full depth, and edits that take it out of
    # its space
    full = root / "full_arch.json"
    full.write_text(json_text(arch_to_doc(
        default_source_architecture(load_bundled_config("desk3")))))
    for name, edit in {
        "layer2_stride_arch": lambda d: d["blocks"][0]["ops"][1].update(stride=2),
        "kernel7_arch": lambda d: d["blocks"][0]["ops"][0].update(kernel=7),
        "expansion6_arch": lambda d: d["blocks"][0]["ops"][0].update(expansion=6),
        "deep_arch": lambda d: d["blocks"][0]["ops"].append(d["blocks"][0]["ops"][-1]),
        "short_arch": lambda d: d["blocks"].pop(),
        "stem_arch": lambda d: d["stem"].update(conv_channels=16),
        "resolution_arch": lambda d: d.update(input_resolution=[64, 64]),
        "no_blocks_arch": lambda d: d.update(blocks=[]),
    }.items():
        paths[name] = edited(full, f"{name}.json", edit)
    # a target and a space whose stem is not the source's
    paths["stem_target"] = edited(from_arrays_inputs["target"], "stem_target.json",
                                  lambda d: d["stem"].update(conv_channels=16))
    paths["stem_space"] = edited(Path(space_path), "stem_space.json",
                                 lambda d: d["stem"].update(conv_channels=16))
    # misspelt optional keys: without a check each falls back to its default
    paths["stem_typo_space"] = edited(
        Path(space_path), "stem_typo_space.json",
        lambda d: d.update(stem={"conv_chanels": 8, "mbconv_channels": 8}))
    paths["top_typo_space"] = edited(Path(space_path), "top_typo_space.json",
                                     lambda d: d.update(stme=d.pop("stem")))
    # an extra key in each other kind of object: without a check each is ignored
    for name, src, edit in (
            ("top_key_arch", artifacts["arch"], lambda d: d.update(name="desk3")),
            ("stem_key_arch", artifacts["arch"], lambda d: d["stem"].update(mbconv_chanels=8)),
            ("block_key_target", from_arrays_inputs["target"],
             lambda d: d["blocks"][0].update(chanels=8)),
            ("block_key_space", Path(space_path), lambda d: d["blocks"][0].update(n_maks=9))):
        paths[name] = edited(src, f"{name}.json", edit)
    paths["op_key_src"] = copy(source, "op_key.nat")
    edited(sidecar, "op_key.arch.json", lambda d: d["blocks"][0]["ops"][0].update(kernal=3))
    paths["data_key"] = copy(artifacts["data"], "data_key.nat")
    edited(artifacts["data"].with_suffix(".json"), "data_key.json",
           lambda d: d.update(resoltion=[16, 16]))
    for name, channels in (("reversed_channels_space", [16, 8, 4]),
                           ("step0_channels_space", [8, 16, 0])):
        paths[name] = edited(Path(space_path), f"{name}.json",
                             lambda d, c=channels: d["blocks"][0].update(channels=c))
    paths["bad_kernel_src"] = copy(source, "bad_kernel.nat")
    edited(sidecar, "bad_kernel.arch.json",
           lambda d: d["blocks"][0]["ops"][0].update(kernel=4))
    # labels that are no class index: 2.5 and 1.9 would train as classes 2 and 1
    tensors = load_tensors(artifacts["data"])
    tensors["labels"][:2] = [2.5, 1.9]
    paths["bad_labels"] = root / "bad_labels.nat"
    save_tensors(paths["bad_labels"], tensors)
    # one NaN weight in a supernet checkpoint: derive reads only its logits
    tensors = load_tensors(artifacts["ckpt"])
    tensors["stem/conv/weight"][0, 0, 1, 1] = np.nan
    paths["nan_weight_ckpt"] = root / "nan_weight_ckpt.nat"
    save_tensors(paths["nan_weight_ckpt"], tensors)
    # a logit JSON cannot hold: cost --ckpt would write "total": NaN
    for name, value in (("nan_ckpt", np.nan), ("inf_ckpt", np.inf)):
        tensors = load_tensors(artifacts["ckpt"])
        tensors["alpha/0/0"][0] = value
        paths[name] = root / f"{name}.nat"
        save_tensors(paths[name], tensors)
    copy(artifacts["data"].with_suffix(".json"), "bad_labels.json")
    # one NaN pixel: without a check it trains to a NaN loss, or not at all at --epochs 0
    tensors = load_tensors(artifacts["data"])
    tensors["images"][3, 1, 5, 7] = np.nan
    paths["nan_pixel"] = root / "nan_pixel.nat"
    save_tensors(paths["nan_pixel"], tensors)
    copy(artifacts["data"].with_suffix(".json"), "nan_pixel.json")
    paths["out"] = root / "out"
    return paths


# (command line with {key} placeholders, the file a malformed-JSON error must name)
EXIT_2_CASES = {
    "search-truncated-data": ("search --space {space} --data {trunc_data} --out {out}", None),
    "search-nan-eps": ("search --space {space} --data {data} --eps nan --out {out}", None),
    "search-init-from-without-sidecar": (
        "search --space {space} --data {data} --init-from {no_sidecar} --out {out}", None),
    "search-malformed-space": ("search --space {bad_json} --data {data} --out {out}",
                               "bad.json"),
    "search-malformed-data-sidecar": (
        "search --space {space} --data {bad_data_sidecar} --out {out}", "bad_data.json"),
    "search-malformed-init-from-sidecar": (
        "search --space {space} --data {data} --init-from {bad_arch_sidecar} --out {out}",
        "bad_sidecar.arch.json"),
    "derive-truncated-ckpt": ("derive --ckpt {trunc_ckpt} --space {space} --out {out}",
                              None),
    "derive-wrong-space": ("derive --ckpt {ckpt} --space {table1} --out {out}", None),
    "derive-malformed-space": ("derive --ckpt {ckpt} --space {bad_json} --out {out}",
                               "bad.json"),
    "derive-non-utf8-space": ("derive --ckpt {ckpt} --space {bad_utf8} --out {out}",
                              "bad_utf8.json"),
    "derive-nan-weight": ("derive --ckpt {nan_weight_ckpt} --space {space} --out {out}",
                          None),
    "cost-truncated-ckpt": ("cost --space {space} --ckpt {trunc_ckpt}", None),
    "cost-wrong-space": ("cost --space {table1} --ckpt {ckpt}", None),
    "cost-malformed-arch": ("cost --space {space} --arch {bad_json}", "bad.json"),
    "cost-nan-logit": ("cost --space {space} --ckpt {nan_ckpt} --out {out}", None),
    "cost-inf-logit": ("cost --space {space} --ckpt {inf_ckpt} --out {out}", None),
    "remap-truncated-src": ("remap --src {trunc_src} --dst-arch {target} --out {out}",
                            None),
    # the flag is checked before the source is read
    "remap-truncated-src-nan-eps": (
        "remap --src {trunc_src} --space {space} --eps nan --out {out}", None),
    "remap-src-without-sidecar": ("remap --src {no_sidecar} --space {space} --out {out}",
                                  None),
    "remap-src-missing-tensor": (
        "remap --src {missing_tensor} --dst-arch {target} --out {out}", None),
    "remap-malformed-dst-arch": ("remap --src {source} --dst-arch {bad_json} --out {out}",
                                 "bad.json"),
    "remap-malformed-space": ("remap --src {source} --space {bad_json} --out {out}",
                              "bad.json"),
    "remap-malformed-src-sidecar": (
        "remap --src {bad_arch_sidecar} --dst-arch {target} --out {out}",
        "bad_sidecar.arch.json"),
    "verify-truncated-src": ("verify --src {trunc_src} --dst-arch {target}", None),
    "verify-src-without-sidecar": ("verify --src {no_sidecar} --dst-arch {target}", None),
    "verify-src-missing-tensor": ("verify --src {missing_tensor} --dst-arch {target}",
                                  None),
    "verify-malformed-dst-arch": ("verify --src {source} --dst-arch {bad_json}",
                                  "bad.json"),
    "verify-malformed-src-sidecar": ("verify --src {bad_arch_sidecar} --dst-arch {target}",
                                     "bad_sidecar.arch.json"),
    "verify-stride-mismatch": ("verify --src {source} --dst-arch {stride_target}", None),
    "verify-nan-src": ("verify --src {nan_src} --dst-arch {target}", None),
    "remap-nan-src": ("remap --src {nan_src} --dst-arch {target} --out {out}", None),
    "search-init-from-nan-src": (
        "search --space {space} --data {data} --init-from {nan_src} --out {out}", None),
    "finetune-truncated-data": ("finetune --arch {arch} --data {trunc_data} --out {out}",
                                None),
    "finetune-params-missing-tensor": (
        "finetune --arch {arch} --data {data} --params {missing_tensor} --out {out}", None),
    "finetune-malformed-arch": ("finetune --arch {bad_json} --data {data} --out {out}",
                                "bad.json"),
    "finetune-malformed-data-sidecar": (
        "finetune --arch {arch} --data {bad_data_sidecar} --out {out}", "bad_data.json"),
    "e2e-malformed-space": ("e2e --space {bad_json} --out-dir {out}", "bad.json"),
    "finetune-fractional-labels": ("finetune --arch {arch} --data {bad_labels} --out {out}",
                                   None),
    "finetune-negative-epochs": ("finetune --arch {arch} --data {data} --epochs -2 --out {out}",
                                 None),
    "search-nan-pixel": ("search --space {space} --data {nan_pixel} --out {out}", None),
    "finetune-nan-pixel": ("finetune --arch {arch} --data {nan_pixel} --epochs 0 --out {out}",
                           None),
    # flags are checked before the data and the source are written
    "e2e-nan-eps": ("e2e --space {space} --out-dir {out} --eps nan", None),
    "e2e-nan-lambda": ("e2e --space {space} --out-dir {out} --lambda nan", None),
    "e2e-warmup-past-epochs": ("e2e --space {space} --out-dir {out} --warmup 20", None),
    "e2e-negative-pretrain-epochs": (
        "e2e --space {space} --out-dir {out} --pretrain-epochs -1", None),
    "e2e-negative-finetune-epochs": (
        "e2e --space {space} --out-dir {out} --finetune-epochs -2", None),
    # a valid architecture edited out of its space
    "cost-arch-stride-2-in-layer-2": (
        "cost --space {space} --arch {layer2_stride_arch} --out {out}", None),
    "cost-arch-kernel-outside-block": (
        "cost --space {space} --arch {kernel7_arch} --out {out}", None),
    "cost-arch-expansion-outside-block": (
        "cost --space {space} --arch {expansion6_arch} --out {out}", None),
    "cost-arch-past-n-max": ("cost --space {space} --arch {deep_arch} --out {out}", None),
    "cost-arch-one-block-short": ("cost --space {space} --arch {short_arch} --out {out}",
                                  None),
    "cost-arch-other-stem": ("cost --space {space} --arch {stem_arch} --out {out}", None),
    "cost-arch-other-resolution": (
        "cost --space {space} --arch {resolution_arch} --out {out}", None),
    "remap-dst-arch-other-stem": (
        "remap --src {source} --dst-arch {stem_target} --out {out}", None),
    "search-init-from-other-stem": (
        "search --space {stem_space} --data {data} --init-from {source} --out {out}", None),
    "gen-data-negative-seed": ("gen-data --seed -1 --out {out}", None),
    # checked before the source is read
    "verify-negative-seed": (
        "verify --src {trunc_src} --dst-arch {target} --seed -1 --out {out}", None),
}

# the start of the message that these cases print after "nasadapt: error: "
ERROR_TEXT = {
    "cost-arch-stride-2-in-layer-2":
        "block 0 op 1: kernel 3, expansion 3, stride 2 is not among its layer's "
        "candidates: kernels (3, 5), expansions (3,), stride 1",
    "cost-arch-kernel-outside-block":
        "block 0 op 0: kernel 7, expansion 3, stride 2 is not among its layer's "
        "candidates: kernels (3, 5), expansions (3,), stride 2",
    "cost-arch-expansion-outside-block":
        "block 0 op 0: kernel 3, expansion 6, stride 2 is not among its layer's "
        "candidates: kernels (3, 5), expansions (3,), stride 2",
    "cost-arch-past-n-max": "block 0: 3 ops exceed n_max 2",
    "cost-arch-one-block-short": "architecture has 2 blocks, config has 3",
    "cost-arch-other-stem": "stem mismatch: ",
    "cost-arch-other-resolution": "input resolution mismatch: (64, 64) vs (32, 32)",
    "remap-dst-arch-other-stem": "incompatible stem: ",
    "search-init-from-other-stem": "incompatible stem: ",
    "gen-data-negative-seed": "dataset seed must be >= 0, got -1",
    "verify-negative-seed": "probe seed must be >= 0, got -1",
}

# (command line, the file and the $-rooted field path its error must name)
FIELD_CASES = {
    "cost-space-stride": ("cost --space {bad_space} --arch {arch}",
                          "bad_space.json", "$.blocks[0].stride"),
    "search-space-stride": ("search --space {bad_space} --data {data} --out {out}",
                            "bad_space.json", "$.blocks[0].stride"),
    "cost-arch-expansion": ("cost --space {space} --arch {bad_arch}",
                            "bad_arch.json", "$.blocks[0].ops[0].expansion"),
    "finetune-arch-expansion": ("finetune --arch {bad_arch} --data {data} --out {out}",
                                "bad_arch.json", "$.blocks[0].ops[0].expansion"),
    "finetune-data-resolution": ("finetune --arch {arch} --data {bad_res_data} --out {out}",
                                 "bad_res.json", "$.resolution"),
    "search-data-resolution": ("search --space {space} --data {bad_res_data} --out {out}",
                               "bad_res.json", "$.resolution"),
    "remap-src-kernel": ("remap --src {bad_kernel_src} --dst-arch {target} --out {out}",
                         "bad_kernel.arch.json", "$.blocks[0].ops[0].kernel"),
    "verify-src-kernel": ("verify --src {bad_kernel_src} --dst-arch {target}",
                          "bad_kernel.arch.json", "$.blocks[0].ops[0].kernel"),
    "cost-arch-no-blocks": ("cost --space {space} --arch {no_blocks_arch} --out {out}",
                            "no_blocks_arch.json", "$.blocks"),
    "search-space-channels-reversed": (
        "search --space {reversed_channels_space} --data {data} --out {out}",
        "reversed_channels_space.json", "$.blocks[0].channels"),
    "cost-space-channel-step-0": (
        "cost --space {step0_channels_space} --arch {arch} --out {out}",
        "step0_channels_space.json", "$.blocks[0].channels"),
    "search-space-stem-typo": ("search --space {stem_typo_space} --data {data} --out {out}",
                               "stem_typo_space.json", "$.stem.conv_chanels"),
    "cost-space-top-level-typo": ("cost --space {top_typo_space} --arch {arch} --out {out}",
                                  "top_typo_space.json", "$.stme"),
    "cost-arch-top-level-key": ("cost --space {space} --arch {top_key_arch} --out {out}",
                                "top_key_arch.json", "$.name"),
    "finetune-arch-stem-key": ("finetune --arch {stem_key_arch} --data {data} --out {out}",
                               "stem_key_arch.json", "$.stem.mbconv_chanels"),
    "remap-dst-arch-block-key": (
        "remap --src {source} --dst-arch {block_key_target} --out {out}",
        "block_key_target.json", "$.blocks[0].chanels"),
    "verify-src-op-key": ("verify --src {op_key_src} --dst-arch {target}",
                          "op_key.arch.json", "$.blocks[0].ops[0].kernal"),
    "search-space-block-key": ("search --space {block_key_space} --data {data} --out {out}",
                               "block_key_space.json", "$.blocks[0].n_maks"),
    "search-data-key": ("search --space {space} --data {data_key} --out {out}",
                        "data_key.json", "$.resoltion"),
}


class TestExit2Sweep:
    """Every subcommand turns a broken input into exit 2 and one stderr line."""

    @pytest.mark.parametrize("case", list(EXIT_2_CASES))
    def test_broken_input(self, capsys, broken, space_path, tmp_path, case):
        template, names = EXIT_2_CASES[case]
        out = tmp_path / "out"
        paths = {k: str(v) for k, v in broken.items()} | {"out": str(out)}
        argv = template.format(space=space_path, table1=bundled_config_path("table1"),
                               **paths).split()
        code = main(argv)
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        if names:
            assert f"{broken['out'].parent / names}:$" in err
        if case.endswith("-nan-eps"):
            assert "eps must be finite and >= 0" in err
        if case == "verify-stride-mismatch":
            assert "block0 outputs" in err and "their strides differ" in err
        if case.endswith("-nan-pixel"):
            assert f"{broken['nan_pixel']}: 'images' holds a non-finite value" in err
        if case.endswith("-nan-weight"):
            assert (f"{broken['nan_weight_ckpt']}: 'stem/conv/weight' holds a "
                    "non-finite value") in err
        if case.endswith("-nan-src"):
            assert (f"{broken['nan_src']}: 'block1/layer0/depthwise/weight' holds a "
                    "non-finite value") in err
        if case in ERROR_TEXT:
            assert err.startswith(f"nasadapt: error: {ERROR_TEXT[case]}")
        assert not out.exists()

    @pytest.mark.parametrize("case", list(FIELD_CASES))
    def test_malformed_field(self, capsys, broken, space_path, tmp_path, case):
        template, name, field = FIELD_CASES[case]
        out = tmp_path / "out"
        paths = {k: str(v) for k, v in broken.items()} | {"out": str(out)}
        code = main(template.format(space=space_path, **paths).split())
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert f"nasadapt: error: {broken['out'].parent / name}:{field}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_without_samples(self, capsys, broken, samples):
        out = broken["out"].parent / "verify.json"
        code = main(["verify", "--src", str(broken["source"]), "--dst-arch",
                     str(broken["target"]), "--samples", samples, "--out", str(out)])
        assert_one_line_error(code, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_rejects_tol(self, capsys, broken, tol):
        out = broken["out"].parent / "verify.json"
        code = main(["verify", "--src", str(broken["source"]), "--dst-arch",
                     str(broken["target"]), f"--tol={tol}", "--out", str(out)])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert "tol must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("message", [
        "Unable to allocate 1.09 PiB for an array with shape (100000000000, 3, 32, 32) "
        "and data type float32", ""], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, tmp_path, message):
        # raised by a stub: a real oversized array is refused on some hosts and
        # killed on hosts that overcommit memory
        def refuse(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate", refuse)
        code = main(["gen-data", "--out", str(tmp_path / "data.nat")])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert err == f"nasadapt: error: {message or 'MemoryError'}\n"

    def test_failed_verify_is_one_line_after_its_report(self, capsys, tmp_path):
        # a layer cut from block 1 changes the function: the report is
        # written, then the failure names the worst block
        arch = default_source_architecture(load_bundled_config("desk3"))
        source = tmp_path / "source.nat"
        save_tensors(source, instantiate(arch, seed=1).to_arrays())
        source.with_suffix(".arch.json").write_text(json_text(arch_to_doc(arch)))
        doc = arch_to_doc(arch)
        del doc["blocks"][1]["ops"][1:]
        target = tmp_path / "cut.json"
        target.write_text(json.dumps(doc))
        out = tmp_path / "verify.json"
        code = main(["verify", "--src", str(source), "--dst-arch", str(target),
                     "--tol", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert (f"{report['worst']} deviates by {report['max_deviation']}, "
                "above tol 0.0") in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "1e39"])
    def test_remap_rejects_eps(self, capsys, broken, space_path, eps):
        out = broken["out"].parent / "remapped.nat"
        code = main(["remap", "--src", str(broken["source"]), "--space", space_path,
                     f"--eps={eps}", "--out", str(out)])
        err = capsys.readouterr().err
        assert_one_line_error(code, err)
        assert "eps must be finite and >= 0" in err
        assert not out.exists()

    def test_search_init_from_rejects_nan_eps(self, capsys, broken, space_path):
        out = broken["out"].parent / "supernet.nat"
        code = main(["search", "--space", space_path, "--data", str(broken["data"]),
                     "--init-from", str(broken["source"]), "--eps", "nan",
                     "--out", str(out)])
        assert_one_line_error(code, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--init-from", "--params", "--history", "--report"])
    def test_empty_path_is_a_path(self, capsys, broken, space_path, tmp_path, flag):
        # an empty path names no file: it is neither read nor skipped, whatever the flag
        out = tmp_path / "out.nat"
        search = ["search", "--space", space_path, "--data", str(broken["data"]),
                  "--epochs", "0", "--warmup", "0"]
        argv = {
            "--init-from": search,
            "--history": search,
            "--params": ["finetune", "--arch", str(broken["arch"]),
                         "--data", str(broken["data"]), "--epochs", "0"],
            "--report": ["remap", "--src", str(broken["source"]), "--space", space_path],
        }[flag]
        code = main([*argv, "--out", str(out), flag, ""])
        assert_one_line_error(code, capsys.readouterr().err)
        # an input is read before anything is written
        assert out.exists() == (flag in ("--history", "--report"))

    def test_e2e_checks_mask_mode_before_writing(self, broken, space_path):
        # the CLI offers only valid modes; the function checks its own argument
        with pytest.raises(ParameterError, match="mask mode"):
            end_to_end(space_path, 0, broken["out"], mask_mode="diagonal")
        assert not broken["out"].exists()

    def test_e2e_checks_lambda_before_writing(self, broken, space_path):
        with pytest.raises(ParameterError, match="lambda must be finite and >= 0, got inf"):
            end_to_end(space_path, 0, broken["out"], lam=float("inf"))
        assert not broken["out"].exists()

    def test_e2e_checks_eps_before_writing(self, broken, space_path):
        # float32 cannot hold the noise amplitude, though float64 can
        with pytest.raises(ParameterError, match=r"eps must be finite and >= 0, got 1e\+39"):
            end_to_end(space_path, 0, broken["out"], eps=1e39)
        assert not broken["out"].exists()

    def test_remap_usage_checked_before_source(self, capsys, broken):
        # neither --dst-arch nor --space: a usage error, whatever the source holds
        out = broken["out"].parent / "remapped.nat"
        code = main(["remap", "--src", str(broken["trunc_src"]), "--out", str(out)])
        assert code == 1
        assert "one of the arguments --dst-arch --space is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["nan", "-0.1", "inf", "1e39"])
    def test_search_rejects_lambda(self, capsys, broken, space_path, lam):
        out = broken["out"].parent / "supernet.nat"
        code = main(["search", "--space", space_path, "--data", str(broken["data"]),
                     "--epochs", "1", "--warmup", "1", f"--lambda={lam}", "--out", str(out)])
        assert_one_line_error(code, capsys.readouterr().err)
        assert not out.exists()
