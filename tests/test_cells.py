from itertools import product

import pytest

from camsim import (
    Level,
    mle_eval,
    nor_cell_pulls_down,
    xnor_cell_eval,
    xor_cell_eval,
)


def test_xnor_high_on_match():
    assert xnor_cell_eval(1, 1) is Level.HIGH
    assert xnor_cell_eval(0, 0) is Level.HIGH
    assert xnor_cell_eval(0, 1) is Level.LOW
    assert xnor_cell_eval(1, 0) is Level.LOW


def test_xor_high_on_mismatch():
    assert xor_cell_eval(1, 0) is Level.HIGH
    assert xor_cell_eval(0, 0) is Level.LOW


def test_xor_is_exact_complement_of_xnor():
    for stored, search in product((0, 1), repeat=2):
        xnor = xnor_cell_eval(stored, search)
        xor = xor_cell_eval(stored, search)
        assert {xnor, xor} == {Level.LOW, Level.HIGH}


def test_nor_pulls_down_on_mismatch():
    assert nor_cell_pulls_down(1, 0) is True
    assert nor_cell_pulls_down(1, 1) is False


def test_nor_truth_table_equals_xor_as_flag():
    # enumerate all four cases for both operations and compare
    for stored, search in product((0, 1), repeat=2):
        flag = nor_cell_pulls_down(stored, search)
        level = xor_cell_eval(stored, search)
        assert flag == (level is Level.HIGH)


def test_xnor_cell_validates_stored_bit():
    with pytest.raises(ValueError, match="^stored bit must be 0 or 1, got 2$"):
        xnor_cell_eval(2, 0)


def test_xor_cell_validates_stored_bit():
    with pytest.raises(ValueError, match="^stored bit must be 0 or 1, got -1$"):
        xor_cell_eval(-1, 0)


def test_nor_cell_validates_stored_bit():
    with pytest.raises(ValueError, match="^stored bit must be 0 or 1, got '1'$"):
        nor_cell_pulls_down("1", 1)


@pytest.mark.parametrize(
    "evaluate",
    [xnor_cell_eval, xor_cell_eval, nor_cell_pulls_down,
     lambda stored, bit: mle_eval((0, stored), (0, bit))],
    ids=["xnor", "xor", "nor", "mle_eval"],
)
@pytest.mark.parametrize("bit", [2, -1, "1", None])
def test_search_bit_outside_0_and_1_is_refused(evaluate, bit):
    for stored in (0, 1):
        with pytest.raises(ValueError, match=f"^search bit must be 0 or 1, got {bit!r}$"):
            evaluate(stored, bit)
