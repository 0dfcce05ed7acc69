"""Binary container for named float32 tensors.

Layout: the 4 magic bytes ``NAT1``, then for each tensor a little-endian
uint32 header length, a UTF-8 JSON header with exactly the keys ``name``,
``"dtype": "f32"`` and ``shape``, and the row-major little-endian float32
payload. Round trips are bit exact. Every value read back must be finite.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ContractError, ParameterError, ParseError

MAGIC = b"NAT1"
# Entries per finiteness check of a loaded tensor: its boolean temporary
# stays small next to the tensor.
_CHECK_ENTRIES = 1 << 16


def save_tensors(path, named: dict[str, np.ndarray]) -> None:
    """Write named float32 arrays; names must be unique (dict enforces it)."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in named.items():
            arr = np.asarray(arr)
            if arr.dtype != np.float32:
                raise ParameterError(
                    f"container stores float32 only; tensor '{name}' has dtype {arr.dtype}")
            header = json.dumps(
                {"name": name, "dtype": "f32", "shape": list(arr.shape)},
                sort_keys=True).encode("utf-8")
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            f.write(np.ascontiguousarray(arr, dtype="<f4"))  # the array's own buffer


def _is_shape(shape) -> bool:
    """A list of non-negative ints (bools excluded)."""
    return isinstance(shape, list) and all(
        type(d) is int and d >= 0 for d in shape)


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a container back into an insertion-ordered name -> array dict.

    Each payload is read from the file straight into its own array, so
    the file's bytes are held once.
    """
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise ParseError(str(path), f"bad magic bytes {magic!r}, expected {MAGIC!r}")
        pos = 4
        while pos < size:
            if pos + 4 > size:
                raise ParseError(str(path), "truncated header length")
            (hlen,) = struct.unpack("<I", f.read(4))
            pos += 4
            if pos + hlen > size:
                raise ParseError(str(path), "truncated header")
            try:
                header = json.loads(f.read(hlen).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(str(path), f"invalid tensor header: {exc}") from exc
            pos += hlen
            if not isinstance(header, dict):
                raise ParseError(str(path), f"tensor header must be an object, got {header!r}")
            name, dtype, shape = header.get("name"), header.get("dtype"), header.get("shape")
            if (header.keys() != {"name", "dtype", "shape"} or dtype != "f32"
                    or not isinstance(name, str) or not _is_shape(shape)):
                raise ParseError(str(path), f"malformed header {header}")
            nbytes = math.prod(shape) * 4
            if pos + nbytes > size:
                raise ParseError(str(path), f"truncated payload for tensor '{name}'")
            try:
                arr = np.empty(shape, dtype="<f4")
            except ValueError as exc:  # more dimensions, or larger ones, than numpy holds
                raise ParseError(str(path),
                                 f"unsupported shape for tensor '{name}': {exc}") from exc
            if f.readinto(arr) != nbytes:
                raise ParseError(str(path), f"truncated payload for tensor '{name}'")
            pos += nbytes
            if name in out:
                raise ParseError(str(path), f"duplicate tensor name '{name}'")
            flat = arr.reshape(-1)
            if not all(np.isfinite(flat[i:i + _CHECK_ENTRIES]).all()
                       for i in range(0, flat.size, _CHECK_ENTRIES)):
                raise ContractError(f"{path}: '{name}' holds a non-finite value")
            out[name] = arr.astype(np.float32, copy=False)
    return out
