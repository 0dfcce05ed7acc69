"""Checkpoint container: bit-exact round trips and format validation."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from nasadapt.errors import ContractError, ParameterError, ParseError
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
    {"name": "x", "dtype": "f32", "shape": [4], "scale": 2.0},
], ids=["float-dim", "string-dim", "negative-dims", "list-header", "huge-empty-dim",
        "too-many-dims", "unknown-key"])
def test_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.nat"
    write_raw_container(path, header)
    with pytest.raises(ParseError):
        load_tensors(path)


def _container_bytes(named):
    """The format, written out by hand: magic, then per tensor a uint32
    header length, the sorted-key JSON header and the float32 payload."""
    raw = b"NAT1"
    for name, arr in named.items():
        header = json.dumps({"name": name, "dtype": "f32", "shape": list(arr.shape)},
                            sort_keys=True).encode("utf-8")
        raw += struct.pack("<I", len(header)) + header + arr.astype("<f4").tobytes()
    return raw


def test_rejects_duplicate_tensor_name(tmp_path):
    # two well-formed entries under one name: the second must not replace the first
    entry = _container_bytes({"x": np.ones(2, dtype=np.float32)})
    path = tmp_path / "duplicate.nat"
    path.write_bytes(entry + entry[len(b"NAT1"):])
    with pytest.raises(ParseError, match="duplicate tensor name 'x'"):
        load_tensors(path)


def test_zero_size_and_scalar_tensors_round_trip(tmp_path):
    named = {
        "empty": np.zeros((0, 2), dtype=np.float32),
        "scalar": np.full((), 2.5, dtype=np.float32),
        "hollow": np.zeros((3, 0, 4), dtype=np.float32),
        "strided": np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2].T,
    }
    path = tmp_path / "edges.nat"
    save_tensors(path, named)
    assert path.read_bytes() == _container_bytes(named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for name, arr in named.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == np.ascontiguousarray(arr).tobytes()
        assert loaded[name].flags.c_contiguous and loaded[name].flags.writeable


@pytest.mark.parametrize("cut,message", [
    (2, "bad magic bytes"),
    (6, "truncated header length"),
    (20, "truncated header"),
    (-1, "truncated payload for tensor 'a'"),
])
def test_truncation_messages(tmp_path, cut, message):
    path = tmp_path / "cut.nat"
    save_tensors(path, {"a": np.ones((2, 3), dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ParseError, match=message):
        load_tensors(path)


def test_non_finite_payload_is_rejected(tmp_path):
    path = tmp_path / "nan.nat"
    save_tensors(path, {"a": np.ones(5, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ContractError, match="'a' holds a non-finite value"):
        load_tensors(path)


def test_load_holds_the_payloads_once(tmp_path):
    # each payload goes straight from the file into its array: no copy of
    # the file's bytes, no second copy of a tensor, no entrywise temporary
    rng = np.random.default_rng(5)
    path = tmp_path / "big.nat"
    save_tensors(path, {"a": rng.standard_normal((1000, 1000)).astype(np.float32),
                        "b": rng.standard_normal((3, 500, 700)).astype(np.float32)})
    tracemalloc.start()
    try:
        loaded = load_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in loaded.values()) < path.stat().st_size < peak
    assert peak < path.stat().st_size + (128 << 10)
