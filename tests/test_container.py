"""Checkpoint container: bit-exact round trips and format validation."""

import numpy as np
import pytest

from nasadapt.errors import ParameterError, ParseError
from nasadapt.numerics import load_tensors, save_tensors

from helpers import write_raw_container


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    named = {
        "stem/conv/weight": rng.standard_normal((8, 3, 3, 3)).astype(np.float32),
        "alpha/0/0": rng.standard_normal(6).astype(np.float32),
        "scalar": np.float32(rng.standard_normal()) * np.ones((), dtype=np.float32),
    }
    path = tmp_path / "ckpt.nat"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for name in named:
        assert loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == named[name].tobytes()


def test_round_trip_twice_identical_bytes(tmp_path):
    named = {"a": np.arange(12, dtype=np.float32).reshape(3, 4)}
    p1, p2 = tmp_path / "one.nat", tmp_path / "two.nat"
    save_tensors(p1, named)
    save_tensors(p2, load_tensors(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_non_float32(tmp_path):
    with pytest.raises(ParameterError):
        save_tensors(tmp_path / "bad.nat", {"x": np.arange(3, dtype=np.float64)})


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.nat"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError):
        load_tensors(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "ok.nat"
    save_tensors(path, {"x": np.ones(4, dtype=np.float32)})
    clipped = path.read_bytes()[:-8]
    path.write_bytes(clipped)
    with pytest.raises(ParseError):
        load_tensors(path)


def test_empty_container(tmp_path):
    path = tmp_path / "empty.nat"
    save_tensors(path, {})
    assert load_tensors(path) == {}


@pytest.mark.parametrize("header", [
    {"name": "x", "dtype": "f32", "shape": [2.5]},
    {"name": "x", "dtype": "f32", "shape": ["x"]},
    {"name": "x", "dtype": "f32", "shape": [-1, -1]},
    ["x", "f32", [1]],
    {"name": "x", "dtype": "f32", "shape": [0, 2 ** 63]},
    {"name": "x", "dtype": "f32", "shape": [0] * 65},
], ids=["float-dim", "string-dim", "negative-dims", "list-header", "huge-empty-dim",
        "too-many-dims"])
def test_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.nat"
    write_raw_container(path, header)
    with pytest.raises(ParseError):
        load_tensors(path)
