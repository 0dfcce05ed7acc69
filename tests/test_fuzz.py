"""Malformed inputs: only package errors may escape the readers.

Containers are fuzzed by truncation and byte flips of a valid file;
architecture and search-space documents by replacing or deleting one
field of a valid document. Any exception other than a ``NasAdaptError``
fails the example. A dataset is fuzzed end to end, through ``finetune``:
it must exit 0 or 2.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasadapt.cli import main
from nasadapt.derive import arch_from_doc, arch_to_doc, default_source_architecture
from nasadapt.errors import NasAdaptError
from nasadapt.numerics.container import load_tensors, save_tensors
from nasadapt.searchspace import (
    bundled_config_path,
    json_text,
    load_bundled_config,
    parse_config,
    parse_json,
)

from helpers import DELETE, json_paths, replaced

ARCH_DOC = arch_to_doc(default_source_architecture(load_bundled_config("desk3")))
SPACE_DOC = json.loads(bundled_config_path("desk3").read_text(encoding="utf-8"))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """(bytes of a valid container, a path to write variants to)."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    save_tensors(root / "valid.nat", {
        "stem/conv/weight": rng.standard_normal((2, 3, 1, 1)).astype(np.float32),
        "beta/0": np.zeros(3, dtype=np.float32),
        "empty": np.zeros((0, 2), dtype=np.float32),
    })
    return (root / "valid.nat").read_bytes(), root / "variant.nat"


def _read(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load_tensors(path)
    except NasAdaptError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_container_truncation(container, data):
    raw, path = container
    _read(path, raw[:data.draw(st.integers(0, len(raw) - 1))])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_container_byte_flips(container, data):
    raw, path = container
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                               min_size=1, max_size=4))
    buf = bytearray(raw)
    for pos, mask in flips:
        buf[pos] ^= mask
    _read(path, bytes(buf))


@pytest.mark.parametrize("doc, parse", [
    (ARCH_DOC, lambda text: arch_from_doc(parse_json(text))),
    (SPACE_DOC, parse_config),
], ids=["architecture", "search-space"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_document_field_replacement(doc, parse, data):
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(st.just(DELETE) | JSON_VALUES)
    try:
        parse(replaced(doc, path, value))
    except NasAdaptError:
        pass


@pytest.fixture(scope="module")
def dataset_paths(tmp_path_factory):
    """(architecture, dataset container, bundle) paths of a finetune run."""
    root = tmp_path_factory.mktemp("fuzz-data")
    arch = root / "arch.json"
    arch.write_text(json_text(ARCH_DOC))
    return arch, root / "data.nat", root / "out.nat"


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(["n_samples", "n_classes", "height", "width"]),
       value=st.integers(-1, 20))
@example(field="n_samples", value=0)
def test_dataset_integer_through_finetune(dataset_paths, field, value):
    arch, data, out = dataset_paths
    dims = {"n_samples": 8, "n_classes": 4, "height": 16, "width": 16} | {field: value}
    doc = {"n_samples": dims["n_samples"], "n_classes": dims["n_classes"],
           "resolution": [dims["height"], dims["width"]], "seed": 0}
    # arrays that match the sidecar wherever a shape allows it
    n, h, w = (max(dims[k], 0) for k in ("n_samples", "height", "width"))
    save_tensors(data, {"images": np.zeros((n, 3, h, w), dtype=np.float32),
                        "labels": np.arange(n, dtype=np.float32) % max(dims["n_classes"], 1)})
    data.with_suffix(".json").write_text(json.dumps(doc))
    assert main(["finetune", "--arch", str(arch), "--data", str(data), "--out", str(out),
                 "--epochs", "0"]) in (0, 2)
