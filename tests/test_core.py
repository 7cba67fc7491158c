import pytest
from hypothesis import given
from hypothesis import strategies as st

from camsim import (
    BadDigit,
    BitWord,
    CamConfig,
    DriverMode,
    InvalidConfig,
    Level,
    WidthMismatch,
    parse_word,
)


def test_parse_all_zero():
    w = parse_word("0000", 4, "bin")
    assert w.bits() == (0, 0, 0, 0)


def test_parse_hex_all_ones():
    w = parse_word("F", 4, "hex")
    assert w.bits() == (1, 1, 1, 1)


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


def test_parse_strips_whitespace():
    assert parse_word(" 1010\n", 4, "bin").to_text() == "1010"


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_word("12", 2, "oct")
    with pytest.raises(ValueError, match="unknown word format 'oct'"):
        BitWord(4, 0).to_text("oct")


def test_bit_zero_is_leftmost_and_most_significant():
    w = parse_word("1000", 4, "bin")
    assert w.bit(0) == 1
    assert w.bit(3) == 0
    assert w.value == 0b1000
    # hex: bit 0 sits in the first digit's most significant position
    assert parse_word("8", 4, "hex").bit(0) == 1


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80))
def test_bin_round_trip(bits):
    w = BitWord.from_bits(bits)
    assert parse_word(w.to_text("bin"), w.width, "bin") == w


@given(st.lists(st.integers(0, 1), min_size=4, max_size=80).filter(lambda b: len(b) % 4 == 0))
def test_hex_round_trip(bits):
    w = BitWord.from_bits(bits)
    assert parse_word(w.to_text("hex"), w.width, "hex") == w


def test_hex_render_needs_nibble_width():
    with pytest.raises(WidthMismatch):
        BitWord(7, 0).to_text("hex")


@pytest.mark.parametrize("width", [1, 6, 7, 10])
def test_hex_needs_whole_digits_both_ways(width):
    with pytest.raises(WidthMismatch):
        BitWord(width, 0).to_text("hex")
    for digits in (width // 4, width // 4 + 1):
        with pytest.raises(WidthMismatch):
            parse_word("F" * digits, width, "hex")


def test_bitword_rejects_out_of_range_value():
    with pytest.raises(WidthMismatch):
        BitWord(4, 16)


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
    assert Level.HIGH.as_bit() == 1


def test_driver_mode_values():
    assert {m.value for m in DriverMode} == {"write", "search"}
