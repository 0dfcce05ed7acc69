"""The JSON Schemas under docs/ agree with the parsers: every document the
parsers accept validates, each rule a schema can state rejects what the
parser rejects, and mutated documents on which the two disagree break only
a rule a schema cannot state."""

import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasadapt.derive import arch_from_doc, arch_to_doc, default_source_architecture, \
    derive_architecture
from nasadapt.errors import NasAdaptError, ParseError
from nasadapt.searchspace import bundled_config_path, load_bundled_config, parse_config

from helpers import DELETE, json_paths, replaced, zero_logits

jsonschema = pytest.importorskip("jsonschema")

DOCS = Path(__file__).resolve().parent.parent / "docs"


@functools.cache
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


# The rules a 2020-12 schema cannot state, by the parser message that names
# each: a document may validate and still break one of them.
SCHEMA_BLIND = {
    # "type": "integer", "const" and "enum" accept 1.0 for 1; the parser wants a JSON integer
    "integral-float": r"^expected (an integer|a non-empty list of integers|\[H, W\] positives), "
                      r"got .*(\d\.0\b|e\+\d)",
    "not-increasing": r"^must be strictly increasing, got",
    "min-above-max": r"^need 1 <= min <= max, got",
    "step-not-dividing": r"^step \d+ does not divide range",
}


def blind_rule(exc):
    """The SCHEMA_BLIND rule a parse failure names, or None."""
    message = exc.message if isinstance(exc, ParseError) else str(exc)
    return next((rule for rule, pattern in SCHEMA_BLIND.items()
                 if re.search(pattern, message)), None)


# one desk3 edit per rule: the document validates and fails to parse
BLIND = {
    "integral-float": ("arch", lambda d: d.update(v=1.0)),
    "not-increasing": ("searchspace", lambda d: d["blocks"][0].update(kernels=[5, 3])),
    "min-above-max": ("searchspace", lambda d: d["blocks"][0].update(channels=[16, 8, 4])),
    "step-not-dividing": ("searchspace", lambda d: d["blocks"][0].update(channels=[8, 16, 3])),
}


@pytest.mark.parametrize("rule", list(SCHEMA_BLIND))
def test_each_blind_rule_validates_but_fails_to_parse(rule):
    schema, edit = BLIND[rule]
    doc = BASES[schema]()
    edit(doc)
    validator(schema).validate(doc)
    with pytest.raises(NasAdaptError) as info:
        PARSERS[schema](doc)
    assert blind_rule(info.value) == rule


# values aimed at the schemas' rules: signs, parity, integral and other
# floats, repeated and descending lists, channel triples, and one of each
# other JSON type
TARGETS = st.sampled_from([0, -1, 2, 3, 4, 5, 1.0, 2.0, 2.5, [3, 3], [5, 3], [16, 8, 4],
                           [8, 16, 3], [8, 16, 4], True, None, "x", {}, []])


@functools.cache
def mutable(case):
    """A VALID document, its key paths and the paths of its objects (root included)."""
    doc = VALID[case][1]()
    paths = list(json_paths(doc))
    objects = [()] + [p for p in paths if isinstance(functools.reduce(
        lambda node, key: node[key], p, doc), dict)]
    return doc, paths, objects


@pytest.mark.parametrize("case", list(VALID))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_disagree_only_on_blind_rules(case, data):
    schema = VALID[case][0]
    doc, paths, objects = mutable(case)
    kind = data.draw(st.sampled_from(["set", "delete", "add"]))
    if kind == "add":
        path = data.draw(st.sampled_from(objects)) + ("unknown",)
    else:
        path = data.draw(st.sampled_from(paths))
    mutated = json.loads(replaced(doc, path, DELETE if kind == "delete" else data.draw(TARGETS)))
    try:
        PARSERS[schema](mutated)
    except NasAdaptError as exc:
        if validator(schema).is_valid(mutated):
            assert blind_rule(exc), f"{kind} {path}: validates, but {exc}"
    else:
        validator(schema).validate(mutated)
