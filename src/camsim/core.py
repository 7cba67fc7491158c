"""Shared vocabulary types: array geometry, fixed-width bit vectors, node levels.

Bit index 0 is the first bit of a word, the one compared by the energizer
stage; it is rendered leftmost in text form and packed as the most
significant bit of the integer representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import BadDigit, InvalidConfig, WidthMismatch

# Energizer prefix width limits: one bit feeds the charge source, so at
# least two are needed; the series-device cost model is unsupported past 6.
MIN_MLE_BITS = 2
MAX_MLE_BITS = 6

_SEED_LIMIT = 2 ** 64

# Word text formats: bits per digit, format() code, digit alphabet and the
# digit name used in error messages.
_WORD_FORMATS = {
    "bin": (1, "b", frozenset("01"), "binary"),
    "hex": (4, "X", frozenset("0123456789abcdefABCDEF"), "hex"),
}


def _word_format(fmt: str) -> tuple[int, str, frozenset, str]:
    try:
        return _WORD_FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown word format {fmt!r}") from None


class Level(Enum):
    """Digital node level. The model is full swing: low or high, nothing between."""

    LOW = 0
    HIGH = 1

    @classmethod
    def from_bit(cls, bit: int) -> "Level":
        return cls.HIGH if bit else cls.LOW

    def as_bit(self) -> int:
        return self.value


class DriverMode(Enum):
    """Global write/search control shared by every cell driver in the array."""

    WRITE = "write"
    SEARCH = "search"


@dataclass(frozen=True)
class CamConfig:
    """Array geometry: ``num_words`` words of ``word_bits`` bits each, with the
    first ``mle_bits`` bits handled by the energizer stage.

    ``seed`` feeds the deterministic workload generators.
    """

    num_words: int
    word_bits: int
    mle_bits: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_words < 1:
            raise InvalidConfig(f"num_words must be >= 1, got {self.num_words}")
        if self.word_bits < 3:
            raise InvalidConfig(f"word_bits must be >= 3, got {self.word_bits}")
        if not MIN_MLE_BITS <= self.mle_bits <= MAX_MLE_BITS:
            raise InvalidConfig(
                f"mle_bits must be between {MIN_MLE_BITS} and {MAX_MLE_BITS}, "
                f"got {self.mle_bits}"
            )
        if self.mle_bits >= self.word_bits:
            raise InvalidConfig(
                f"mle_bits ({self.mle_bits}) must be smaller than word_bits "
                f"({self.word_bits})"
            )
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidConfig("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class BitWord:
    """Fixed-width bit vector, the unit of storage and query.

    Packed into an int with bit 0 as the most significant bit, which keeps
    whole-word and prefix comparisons cheap.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise WidthMismatch(f"width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise WidthMismatch(
                f"value {self.value:#x} does not fit in {self.width} bits"
            )

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        seq = tuple(bits)
        value = 0
        for b in seq:
            if b not in (0, 1):
                raise BadDigit(f"bit values must be 0 or 1, got {b!r}")
            value = (value << 1) | b
        return cls(len(seq), value)

    def bit(self, index: int) -> int:
        if not 0 <= index < self.width:
            raise IndexError(index)
        return (self.value >> (self.width - 1 - index)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.width))

    def prefix_int(self, k: int) -> int:
        """The first k bits as an integer (bit 0 still most significant)."""
        return self.value >> (self.width - k)

    def prefix_bits(self, k: int) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(k))

    def to_text(self, fmt: str = "bin") -> str:
        bits, code, _, name = _word_format(fmt)
        if self.width % bits:
            raise WidthMismatch(
                f"width {self.width} is not a whole number of {name} digits"
            )
        return format(self.value, f"0{self.width // bits}{code}")

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, index: int) -> int:
        return self.bit(index)


def parse_word(text: str, width: int, fmt: str = "bin") -> BitWord:
    """Decode a word from text. ``fmt`` is ``bin`` or ``hex``; the leftmost
    character carries bit 0 in its most significant position.

    Raises WidthMismatch when the decoded length differs from ``width`` and
    BadDigit for characters outside the alphabet.
    """
    bits, _, alphabet, name = _word_format(fmt)
    text = text.strip()
    if bits * len(text) != width:
        raise WidthMismatch(
            f"expected {width} bits ({width / bits:g} {name} digits), "
            f"got {len(text)} digits in {text!r}"
        )
    for ch in text:
        if ch not in alphabet:
            raise BadDigit(f"character {ch!r} is not a {name} digit")
    return BitWord(width, int(text, 1 << bits))
