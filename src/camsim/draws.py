"""Counter-based draws: every drawn value is a hash of (stream tag, seed, index).

A draw reads no state left by earlier draws, so a workload is identical
whatever order its values are drawn in, on any platform. Block b of a draw
is the 32-byte blake2b digest of the tag, the seed (8 bytes), the index
(8 bytes) and b (4 bytes), all big-endian.
"""

from __future__ import annotations

import math
from functools import lru_cache
from hashlib import blake2b


@lru_cache(maxsize=64)
def _block_suffixes(count: int) -> tuple[bytes, ...]:
    """The 4-byte big-endian numbers of blocks 0 .. count - 1."""
    return tuple([block.to_bytes(4, "big") for block in range(count)])


def blocks(tag: bytes, seed: int, index: int, nbytes: int) -> bytes:
    """The first ``nbytes`` of the concatenated digest blocks of one draw."""
    head = blake2b(tag, digest_size=32)
    head.update(seed.to_bytes(8, "big") + index.to_bytes(8, "big"))
    parts = []
    for suffix in _block_suffixes((nbytes + 31) // 32):
        h = head.copy()
        h.update(suffix)
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


# The byte values of b"0", b"1" and the mark ``threshold_bits`` gives a word
# whose top byte equals the threshold's.
_ZERO, _ONE, _TIE = b"01="


@lru_cache(maxsize=16)
def _top_byte_table(top: int) -> bytes:
    """A ``bytes.translate`` table from a word's top byte to b"0" below
    ``top``, b"1" above it and the tie mark at it (no byte is a tie when
    ``top`` is 256)."""
    return bytes([_ZERO if b < top else _ONE if b > top else _TIE for b in range(256)])


def threshold_bits(raw: bytes, threshold: int) -> bytes:
    """ASCII b"0" or b"1" per big-endian 32-bit word x of ``raw``, b"1" when
    x >= ``threshold`` (an int in [0, 2**32]).

    The top bytes decide every word but those whose top byte equals the
    threshold's; only those ties compare their low 24 bits."""
    flips = raw[0::4].translate(_top_byte_table(threshold >> 24))
    tie = flips.find(_TIE)
    if tie < 0:
        return flips
    low = threshold & 0xFFFFFF
    out = bytearray(flips)
    while tie >= 0:
        word_low = int.from_bytes(raw[4 * tie + 1 : 4 * tie + 4], "big")
        out[tie] = _ONE if word_low >= low else _ZERO
        tie = flips.find(_TIE, tie + 1)
    return bytes(out)
