"""Shared vocabulary: array geometry, word text, node levels.

A word is an n-bit int everywhere, from its text to a search's trace. Bit
index 0 is the first bit of a word, the one compared by the energizer
stage; it is rendered leftmost in text form and packed as the most
significant bit of the int.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from .errors import BadDigit, InvalidConfig, WidthMismatch

# Energizer prefix width limits: one bit feeds the charge source, so at
# least two are needed; the series-device cost model is unsupported past 6.
MIN_MLE_BITS = 2
MAX_MLE_BITS = 6

_SEED_LIMIT = 2 ** 64


def _check_seed(seed: int) -> None:
    """Every seed keys its draws as 8 big-endian bytes."""
    if not 0 <= seed < _SEED_LIMIT:
        raise InvalidConfig("seed must fit in 64 unsigned bits")


# Word text formats: bits per digit, format() code, digit alphabet and the
# digit name used in error messages.
_WORD_FORMATS = {
    "bin": (1, "b", frozenset("01"), "binary"),
    "hex": (4, "X", frozenset("0123456789abcdefABCDEF"), "hex"),
}


def _word_format(fmt: str, width: int) -> tuple[int, str, frozenset, str]:
    """``fmt``'s entry in ``_WORD_FORMATS``, once ``width`` bits are checked
    to be a whole number of its digits, for reading and writing alike."""
    try:
        entry = _WORD_FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown word format {fmt!r}") from None
    if width % entry[0]:
        raise WidthMismatch(f"width {width} is not a whole number of {entry[3]} digits")
    return entry


def word_text(value: int, width: int, fmt: str = "bin") -> str:
    """The text of the ``width``-bit word ``value`` in ``fmt``, ``bin`` or
    ``hex``, which ``parse_word`` reads back. Raises WidthMismatch when
    ``width`` is not a whole number of digits; that ``value`` fits in
    ``width`` bits is the caller's to check."""
    bits, code, _, _ = _word_format(fmt, width)
    return format(value, f"0{width // bits}{code}")


class Level(Enum):
    """Digital node level. The model is full swing: low or high, nothing between."""

    LOW = 0
    HIGH = 1

    @classmethod
    def from_bit(cls, bit: int) -> "Level":
        return cls.HIGH if bit else cls.LOW


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
        _check_seed(self.seed)


def parse_word(text: str, width: int, fmt: str = "bin") -> int:
    """Decode a ``width``-bit word from text, as an int. ``fmt`` is ``bin``
    or ``hex``; the leftmost character carries bit 0 in its most
    significant position. ``word_text`` writes the text back.

    Raises WidthMismatch when ``width`` is not a whole number of digits or
    the decoded length differs from it, and BadDigit for characters outside
    the alphabet.
    """
    bits, _, alphabet, name = _word_format(fmt, width)
    text = text.strip()
    if bits * len(text) != width:
        raise WidthMismatch(
            f"expected {width} bits ({width // bits} {name} digits), "
            f"got {len(text)} digits in {text!r}"
        )
    for ch in text:
        if ch not in alphabet:
            raise BadDigit(f"character {ch!r} is not a {name} digit")
    return int(text, 1 << bits)
