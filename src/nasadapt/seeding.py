"""Deterministic fan-out of one global seed into per-module seeds.

Every randomized stage derives its own seed as ``seed XOR crc32(tag)``,
masked to 31 bits. Stages therefore stay independently reproducible: the
dataset for seed 7 is the same whether it is generated standalone or as
part of an end-to-end run. See docs/determinism.md.
"""

import zlib


def seed_for(seed: int, tag: str) -> int:
    """Derive the seed for a named stage from the global seed."""
    return (int(seed) ^ zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF

