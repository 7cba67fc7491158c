from itertools import product

import pytest

from camsim import (
    BitWord,
    Level,
    PrefixTooShort,
    WidthMismatch,
    expected_energized_fraction,
    mle_eval,
)


def _bits(text):
    return tuple(int(c) for c in text)


def test_full_prefix_match_raises_ml_en():
    trace = mle_eval(_bits("110"), _bits("110"))
    assert trace.m_nodes == (Level.HIGH, Level.LOW, Level.LOW)
    assert trace.ml_en is Level.HIGH


def test_first_bit_mismatch_kills_the_source():
    trace = mle_eval(_bits("110"), _bits("010"))
    assert trace.m_nodes[0] is Level.LOW
    assert trace.ml_en is Level.LOW


def test_second_bit_mismatch_isolates_ml_en():
    trace = mle_eval(_bits("110"), _bits("100"))
    assert trace.m_nodes == (Level.HIGH, Level.HIGH, Level.LOW)
    assert trace.ml_en is Level.LOW


def test_three_bit_table_has_exactly_eight_high_outcomes():
    high = 0
    for stored in product((0, 1), repeat=3):
        for search in product((0, 1), repeat=3):
            trace = mle_eval(stored, search)
            assert (trace.ml_en is Level.HIGH) == (stored == search)
            high += trace.ml_en is Level.HIGH
    assert high == 8


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ml_en_equals_prefix_match_exhaustively(k):
    # cell-level route against the integer prefix-compare route
    for stored in product((0, 1), repeat=k):
        a = BitWord.from_bits(stored + (0,) * 2)
        for search in product((0, 1), repeat=k):
            b = BitWord.from_bits(search + (0,) * 2)
            want = a.prefix_int(k) == b.prefix_int(k)
            assert (mle_eval(stored, search).ml_en is Level.HIGH) == want


def test_m_node_semantics_per_position():
    trace = mle_eval(_bits("0101"), _bits("0011"))
    # m0 high on match; m1.. high on mismatch
    assert trace.m_nodes == (Level.HIGH, Level.HIGH, Level.HIGH, Level.LOW)


def test_expected_fraction_reference_points():
    assert expected_energized_fraction(3) == 0.125
    assert expected_energized_fraction(2) == 0.25


def test_expected_fraction_k4_by_enumeration():
    hits = sum(
        1
        for s in product((0, 1), repeat=4)
        for q in product((0, 1), repeat=4)
        if s == q
    )
    assert expected_energized_fraction(4) == hits / 256 == 0.0625


def test_expected_fraction_halves_per_added_bit():
    for k in range(2, 6):
        assert expected_energized_fraction(k + 1) == expected_energized_fraction(k) / 2


def test_prefix_too_short():
    with pytest.raises(PrefixTooShort):
        mle_eval((1,), (1,))
    with pytest.raises(PrefixTooShort):
        expected_energized_fraction(1)


def test_prefix_length_mismatch():
    with pytest.raises(WidthMismatch):
        mle_eval((1, 0), (1, 0, 1))
