"""The exact text of every file written from a record: dataset sidecar,
mapping report, search history, fine-tune curve and architecture sidecar."""

import numpy as np
import pytest

import nasadapt.cli as cli
from nasadapt.derive import DerivedBlock, DiscreteArchitecture, arch_to_doc, save_arch
from nasadapt.paramap import MappingReport, ParameterBundle
from nasadapt.searchloop import SearchHistory, StepRecord, history_to_csv
from nasadapt.searchspace import OpCandidate, StemSpec
from nasadapt.toytask import DatasetSpec, generate, save_dataset

ONE_BLOCK = DiscreteArchitecture(
    input_resolution=(32, 32), stem=StemSpec(conv_channels=8, mbconv_channels=8),
    blocks=(DerivedBlock(channels=16, ops=(OpCandidate("mbconv", 3, 6, 2),)),))


def test_dataset_sidecar(tmp_path):
    save_dataset(generate(DatasetSpec(n_samples=6, resolution=(16, 20), n_classes=3, seed=5)),
                 tmp_path / "data.nat")
    assert (tmp_path / "data.json").read_text(encoding="utf-8") == (
        '{\n'
        '  "n_classes": 3,\n'
        '  "n_samples": 6,\n'
        '  "resolution": [\n'
        '    16,\n'
        '    20\n'
        '  ],\n'
        '  "seed": 5\n'
        '}\n')


def test_mapping_report(tmp_path):
    report = MappingReport()
    report.add("stem/conv/weight", "stem/conv/weight", [], 0, False)
    report.add("block0/layer1/dw/weight", "block0/layer0/dw/weight",
               ["depth-copy", "kernel-embed"], 16, True)
    report.save(tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == (
        '{\n'
        '  "entries": [\n'
        '    {\n'
        '      "noised": false,\n'
        '      "rules": [\n'
        '        "direct"\n'
        '      ],\n'
        '      "source": "stem/conv/weight",\n'
        '      "target": "stem/conv/weight",\n'
        '      "zero_count": 0\n'
        '    },\n'
        '    {\n'
        '      "noised": true,\n'
        '      "rules": [\n'
        '        "depth-copy",\n'
        '        "kernel-embed"\n'
        '      ],\n'
        '      "source": "block0/layer0/dw/weight",\n'
        '      "target": "block0/layer1/dw/weight",\n'
        '      "zero_count": 16\n'
        '    }\n'
        '  ]\n'
        '}\n')


def test_search_history(tmp_path):
    history = SearchHistory(steps=[
        StepRecord(step=1, epoch=1, phase="w", model_loss=0.1, expected_cost=1 / 3,
                   total_loss=0.1 + 0.5 / 3),
        StepRecord(step=2, epoch=1, phase="arch", model_loss=2.0, expected_cost=1e-20,
                   total_loss=2.5),
    ])
    history_to_csv(history, tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_bytes() == (
        b"step,epoch,phase,model_loss,expected_cost,total_loss\r\n"
        b"1,1,w,0.1,0.3333333333333333,0.26666666666666666\r\n"
        b"2,1,arch,2.0,1e-20,2.5\r\n")


def test_finetune_curve(tmp_path, monkeypatch, capsys):
    """Two epochs' mean losses, one row each; the training is stubbed so the
    losses are exact."""
    real = cli.finetune

    def two_epochs(arch, params, dataset, epochs, seed):
        bundle, _ = real(arch, params, dataset, epochs=0, seed=seed)
        return bundle, [0.1, 1 / 3]

    monkeypatch.setattr(cli, "finetune", two_epochs)
    arch = tmp_path / "arch.json"
    save_arch(ONE_BLOCK, arch)
    assert cli.main(["gen-data", "--samples", "4", "--seed", "1",
                     "--out", str(tmp_path / "data.nat")]) == 0
    assert cli.main(["finetune", "--arch", str(arch), "--data", str(tmp_path / "data.nat"),
                     "--epochs", "2", "--out", str(tmp_path / "final.nat"),
                     "--history", str(tmp_path / "curve.csv")]) == 0
    assert (tmp_path / "curve.csv").read_bytes() == (
        b"epoch,loss\r\n"
        b"1,0.1\r\n"
        b"2,0.3333333333333333\r\n")
    assert '"final_loss": 0.3333333333333333' in capsys.readouterr().out


# perfbench/workloads.py passes the architecture as a document
@pytest.mark.parametrize("arch", [ONE_BLOCK, arch_to_doc(ONE_BLOCK)],
                         ids=["architecture", "document"])
def test_arch_sidecar(tmp_path, arch):
    ParameterBundle(tensors={"w": np.zeros(2, dtype=np.float32)},
                    arch=arch).save(tmp_path / "net.nat")
    assert (tmp_path / "net.arch.json").read_text(encoding="utf-8") == (
        '{\n'
        '  "blocks": [\n'
        '    {\n'
        '      "channels": 16,\n'
        '      "ops": [\n'
        '        {\n'
        '          "expansion": 6,\n'
        '          "kernel": 3,\n'
        '          "kind": "mbconv",\n'
        '          "stride": 2\n'
        '        }\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "input_resolution": [\n'
        '    32,\n'
        '    32\n'
        '  ],\n'
        '  "stem": {\n'
        '    "conv_channels": 8,\n'
        '    "mbconv_channels": 8\n'
        '  },\n'
        '  "v": 1\n'
        '}\n')
