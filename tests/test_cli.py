"""CLI wiring: subcommands, exit codes, artifact round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nasadapt
from nasadapt.cli import main
from nasadapt.searchspace import bundled_config_path

from helpers import write_raw_container


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
        assert main(["cost", "--space", space_path, "--warp", "9"]) == 1
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

    def test_runtime_failure_exits_2(self, capsys, tmp_path, space_path):
        missing = tmp_path / "nothing.nat"
        assert main(["search", "--space", space_path, "--data", str(missing),
                     "--out", str(tmp_path / "x.nat")]) == 2

    def test_malformed_container_exits_2_without_traceback(self, tmp_path, space_path):
        bad = tmp_path / "bad.nat"
        write_raw_container(bad, {"name": "alpha/0/0", "dtype": "f32", "shape": [2.5]})
        src = str(Path(nasadapt.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "nasadapt.cli", "derive", "--ckpt", str(bad),
             "--space", space_path, "--out", str(tmp_path / "arch.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("nasadapt: error:")
        assert proc.stderr.count("\n") == 1


class TestArtifacts:
    def test_history_columns(self, artifacts):
        lines = artifacts["history"].read_text().strip().splitlines()
        assert lines[0] == "step,epoch,phase,model_loss,expected_cost,total_loss"
        assert len(lines) > 1

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
        # remap onto a widened-kernel variant of the same architecture
        target = json.loads(artifacts["arch"].read_text())
        for op in target["blocks"][0]["ops"]:
            op["kernel"] = 5
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
        assert out.exists()


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
