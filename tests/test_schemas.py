"""The JSON Schemas under docs/ agree with the parsers: every document the
parsers accept validates, and each rule a schema can state rejects what the
parser rejects."""

import json
from pathlib import Path

import numpy as np
import pytest

from nasadapt.derive import arch_from_doc, arch_to_doc, default_source_architecture, \
    derive_architecture
from nasadapt.errors import ParseError
from nasadapt.searchspace import bundled_config_path, load_bundled_config, parse_config

from helpers import zero_logits

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).resolve().parent.parent / "docs"


def validator(name):
    schema = json.loads((DOCS / f"{name}.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def space_doc(name="desk3"):
    return json.loads(bundled_config_path(name).read_text(encoding="utf-8"))


def source_doc(name="desk3"):
    return arch_to_doc(default_source_architecture(load_bundled_config(name)))


def derived_doc():
    cfg = load_bundled_config("table1")
    rng = np.random.default_rng(0)
    alphas, betas = zero_logits(cfg)
    alphas = [[rng.standard_normal(v.shape).astype(np.float32) for v in vecs]
              for vecs in alphas]
    betas = [rng.standard_normal(v.shape).astype(np.float32) for v in betas]
    return arch_to_doc(derive_architecture(alphas, betas, cfg))


VALID = {
    "space-desk3": ("searchspace", lambda: space_doc("desk3")),
    "space-table1": ("searchspace", lambda: space_doc("table1")),
    "source-desk3": ("arch", lambda: source_doc("desk3")),
    "source-table1": ("arch", lambda: source_doc("table1")),
    "derived-table1": ("arch", derived_doc),
}


@pytest.mark.parametrize("case", list(VALID))
def test_accepted_documents_validate(case):
    schema, make = VALID[case]
    validator(schema).validate(make())


PARSERS = {"searchspace": lambda doc: parse_config(json.dumps(doc)), "arch": arch_from_doc}
BASES = {"searchspace": space_doc, "arch": source_doc}

# each edit breaks one rule of a desk3 document
REJECTED = {
    "space-even-kernel": ("searchspace", lambda d: d["blocks"][0].update(kernels=[3, 4])),
    "arch-even-kernel": ("arch", lambda d: d["blocks"][0]["ops"][0].update(kernel=4)),
    "space-stride-3": ("searchspace", lambda d: d["blocks"][0].update(stride=3)),
    "arch-stride-3": ("arch", lambda d: d["blocks"][0]["ops"][0].update(stride=3)),
    "space-unknown-stem-key": ("searchspace", lambda d: d.update(
        stem={"conv_chanels": 8, "mbconv_channels": 8})),
    "space-no-blocks": ("searchspace", lambda d: d.update(blocks=[])),
    "arch-no-blocks": ("arch", lambda d: d.update(blocks=[])),
    "arch-skip-op": ("arch", lambda d: d["blocks"][0]["ops"][0].update(kind="skip")),
    "space-duplicate-kernel": ("searchspace", lambda d: d["blocks"][0].update(kernels=[3, 3])),
    "space-duplicate-expansion": ("searchspace",
                                  lambda d: d["blocks"][0].update(expansions=[3, 3])),
    "space-unknown-block-key": ("searchspace", lambda d: d["blocks"][0].update(n_maks=9)),
    "arch-unknown-top-level-key": ("arch", lambda d: d.update(name="desk3")),
    "arch-unknown-block-key": ("arch", lambda d: d["blocks"][0].update(chanels=8)),
    "arch-unknown-op-key": ("arch", lambda d: d["blocks"][0]["ops"][0].update(kernal=3)),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_schema_rejects_what_the_parser_rejects(case):
    schema, edit = REJECTED[case]
    doc = BASES[schema]()
    edit(doc)
    with pytest.raises(ParseError):
        PARSERS[schema](doc)
    assert not validator(schema).is_valid(doc)
