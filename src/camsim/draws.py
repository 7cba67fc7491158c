"""Counter-based draws: every drawn value is a hash of (stream tag, seed, index).

A draw reads no state left by earlier draws, so a workload is identical
whatever order its values are drawn in, on any platform. Block b of a draw
is the 32-byte blake2b digest of the tag, the seed (8 bytes), the index
(8 bytes) and b (4 bytes), all big-endian.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from hashlib import blake2b

from .core import _check_seed

# A draw's index (8 bytes) and block 0's number (4 zero bytes), as one update.
_FIRST_BLOCK = struct.Struct(">Q4x").pack


@lru_cache(maxsize=64)
def _block_suffixes(count: int) -> tuple[bytes, ...]:
    """The 4-byte big-endian numbers of blocks 0 .. count - 1."""
    return tuple([block.to_bytes(4, "big") for block in range(count)])


class Stream:
    """The draws of one (tag, seed) pair. The tag and the seed are hashed
    once, and each draw continues a copy of that hasher state with its
    index and block number. blake2b of a concatenation does not depend on
    how its updates are split, so the bytes are those of one hash over the
    whole key. A stream keeps nothing between draws."""

    __slots__ = ("_head",)

    def __init__(self, tag: bytes, seed: int) -> None:
        _check_seed(seed)
        head = blake2b(tag, digest_size=32)
        head.update(seed.to_bytes(8, "big"))
        self._head = head

    def blocks(self, index: int, nbytes: int) -> bytes:
        """The first ``nbytes`` of the concatenated digest blocks of draw
        ``index``."""
        head = self._head.copy()
        head.update(index.to_bytes(8, "big"))
        parts = []
        for suffix in _block_suffixes((nbytes + 31) // 32):
            h = head.copy()
            h.update(suffix)
            parts.append(h.digest())
        return b"".join(parts)[:nbytes]

    def bits(self, index: int, width: int) -> int:
        """``width`` uniform bits."""
        nbytes = (width + 7) // 8
        raw = int.from_bytes(self.blocks(index, nbytes), "big")
        return raw >> (8 * nbytes - width)

    def bits_column(self, count: int, width: int, start: int = 0) -> list[int]:
        """``bits(i, width)`` for i = start .. start + count - 1. Up to 256
        bits a draw comes from its first block alone, so the column takes
        one loop with no method call per draw."""
        indices = range(start, start + count)
        nbytes = (width + 7) // 8
        if nbytes > 32:
            return [self.bits(i, width) for i in indices]
        copy, drop, from_bytes = self._head.copy, 8 * nbytes - width, int.from_bytes
        out = []
        for i in indices:
            h = copy()
            h.update(_FIRST_BLOCK(i))
            # Only the draw's own bytes, so each int is allocated at its size.
            out.append(from_bytes(h.digest()[:nbytes], "big") >> drop)
        return out

    def unit(self, index: int) -> float:
        """A uniform float in [0, 1)."""
        return self.bits(index, 64) / 2.0 ** 64

    def pick(self, index: int, count: int) -> int:
        """An index in [0, count)."""
        return self.bits(index, 64) % count


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
