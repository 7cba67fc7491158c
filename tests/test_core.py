import pytest
from hypothesis import given
from hypothesis import strategies as st

from camsim import (
    BadDigit,
    CamConfig,
    InvalidConfig,
    Level,
    Store,
    WidthMismatch,
    parse_word,
    word_text,
)


def test_parse_all_zero():
    assert parse_word("0000", 4, "bin") == 0


def test_parse_hex_all_ones():
    assert parse_word("F", 4, "hex") == 0b1111


def test_parse_length_contract():
    with pytest.raises(WidthMismatch):
        parse_word("101", 4, "bin")


def test_parse_bad_digit():
    with pytest.raises(BadDigit):
        parse_word("10x1", 4, "bin")
    with pytest.raises(BadDigit):
        parse_word("G", 4, "hex")


def test_parse_hex_case_insensitive():
    assert parse_word("ab", 8, "hex") == parse_word("AB", 8, "hex")


def test_parse_hex_width_mismatch():
    with pytest.raises(WidthMismatch):
        parse_word("F", 8, "hex")
    # the digit count is a whole number, never in exponent notation
    with pytest.raises(WidthMismatch, match=r"^expected 4000000 bits \(1000000 hex "):
        parse_word("F", 4_000_000, "hex")


def test_parse_strips_whitespace():
    assert word_text(parse_word(" 1010\n", 4, "bin"), 4) == "1010"


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_word("12", 2, "oct")
    with pytest.raises(ValueError, match="unknown word format 'oct'"):
        word_text(0, 4, "oct")


def test_bit_zero_is_leftmost_and_most_significant():
    assert parse_word("1000", 4, "bin") == 0b1000
    assert word_text(0b1000, 4) == "1000"
    # hex: bit 0 sits in the first digit's most significant position
    assert parse_word("8", 4, "hex") == 0b1000


def _word(bits):
    """The width and the int of a word given as its bits, bit 0 first."""
    return len(bits), int("".join(map(str, bits)), 2)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80))
def test_bin_round_trip(bits):
    width, value = _word(bits)
    assert parse_word(word_text(value, width, "bin"), width, "bin") == value


@given(st.lists(st.integers(0, 1), min_size=4, max_size=80).filter(lambda b: len(b) % 4 == 0))
def test_hex_round_trip(bits):
    width, value = _word(bits)
    assert parse_word(word_text(value, width, "hex"), width, "hex") == value


def test_hex_render_needs_nibble_width():
    message = "^width 7 is not a whole number of hex digits$"
    with pytest.raises(WidthMismatch, match=message):
        word_text(0, 7, "hex")


@pytest.mark.parametrize("width", [1, 6, 7, 10])
def test_hex_needs_whole_digits_both_ways(width):
    # reading and writing refuse the width with one message
    message = f"^width {width} is not a whole number of hex digits$"
    with pytest.raises(WidthMismatch, match=message):
        word_text(0, width, "hex")
    for digits in (width // 4, width // 4 + 1):
        with pytest.raises(WidthMismatch, match=message):
            parse_word("F" * digits, width, "hex")


def test_store_rejects_out_of_range_value():
    with pytest.raises(WidthMismatch):
        Store([16], 4)


def test_config_accepts_reference_geometry():
    cfg = CamConfig(num_words=256, word_bits=144, mle_bits=3, seed=0)
    assert cfg.word_bits - cfg.mle_bits == 141


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_words=0, word_bits=8, mle_bits=3),
        dict(num_words=4, word_bits=2, mle_bits=2),
        dict(num_words=4, word_bits=8, mle_bits=1),
        dict(num_words=4, word_bits=8, mle_bits=7),
        dict(num_words=4, word_bits=3, mle_bits=3),
        dict(num_words=4, word_bits=8, mle_bits=3, seed=-1),
        dict(num_words=4, word_bits=8, mle_bits=3, seed=2 ** 64),
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(InvalidConfig):
        CamConfig(**kwargs)


def test_level_is_strictly_binary():
    assert len(Level) == 2
    assert Level.from_bit(1) is Level.HIGH
    assert Level.from_bit(0) is Level.LOW
