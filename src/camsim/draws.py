"""Counter-based draws: every drawn value is a hash of (stream tag, seed, index).

A draw reads no state left by earlier draws, so a workload is identical
whatever order its values are drawn in, on any platform. Block b of a draw
is the 32-byte blake2b digest of the tag, the seed (8 bytes), the index
(8 bytes) and b (4 bytes), all big-endian.
"""

from __future__ import annotations

import math
from hashlib import blake2b


def blocks(tag: bytes, seed: int, index: int, nbytes: int) -> bytes:
    """The first ``nbytes`` of the concatenated digest blocks of one draw."""
    head = blake2b(tag, digest_size=32)
    head.update(seed.to_bytes(8, "big") + index.to_bytes(8, "big"))
    parts = []
    for block in range((nbytes + 31) // 32):
        h = head.copy()
        h.update(block.to_bytes(4, "big"))
        parts.append(h.digest())
    return b"".join(parts)[:nbytes]


def draw_bits(tag: bytes, seed: int, index: int, width: int) -> int:
    """``width`` uniform bits."""
    nbytes = (width + 7) // 8
    raw = int.from_bytes(blocks(tag, seed, index, nbytes), "big")
    return raw >> (8 * nbytes - width)


def draw_unit(tag: bytes, seed: int, index: int) -> float:
    """A uniform float in [0, 1)."""
    raw = int.from_bytes(blocks(tag, seed, index, 8), "big")
    return raw / 2.0 ** 64


def draw_pick(tag: bytes, seed: int, index: int, count: int) -> int:
    """An index in [0, count)."""
    raw = int.from_bytes(blocks(tag, seed, index, 8), "big")
    return raw % count


def unit_threshold(p: float) -> int:
    """The integer t such that a 32-bit word x has x < t exactly when
    x / 2**32 < p. Both sides scale by a power of two without rounding, so
    the test is exact."""
    return math.ceil(p * 2 ** 32)
