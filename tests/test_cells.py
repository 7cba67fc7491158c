from itertools import product

import pytest

from camsim import (
    CellKind,
    CellState,
    DriverMode,
    Level,
    WriteInSearchMode,
    cell_write,
    driver_select,
    nor_cell_pulls_down,
    xnor_cell_eval,
    xor_cell_eval,
)


def test_driver_select():
    assert driver_select(Level.HIGH) is DriverMode.WRITE
    assert driver_select(Level.LOW) is DriverMode.SEARCH


def test_driver_select_is_stateless():
    seq = [Level.LOW, Level.HIGH, Level.LOW]
    assert [driver_select(l) for l in seq] == [
        DriverMode.SEARCH, DriverMode.WRITE, DriverMode.SEARCH,
    ]


def test_xnor_high_on_match():
    assert xnor_cell_eval(CellState(1, CellKind.XNOR), 1) is Level.HIGH
    assert xnor_cell_eval(CellState(0, CellKind.XNOR), 0) is Level.HIGH
    assert xnor_cell_eval(CellState(0, CellKind.XNOR), 1) is Level.LOW
    assert xnor_cell_eval(CellState(1, CellKind.XNOR), 0) is Level.LOW


def test_xor_high_on_mismatch():
    assert xor_cell_eval(CellState(1, CellKind.XOR), 0) is Level.HIGH
    assert xor_cell_eval(CellState(0, CellKind.XOR), 0) is Level.LOW


def test_xor_is_exact_complement_of_xnor():
    for stored, search in product((0, 1), repeat=2):
        xnor = xnor_cell_eval(CellState(stored, CellKind.XNOR), search)
        xor = xor_cell_eval(CellState(stored, CellKind.XOR), search)
        assert {xnor, xor} == {Level.LOW, Level.HIGH}


def test_nor_pulls_down_on_mismatch():
    assert nor_cell_pulls_down(CellState(1, CellKind.NOR), 0) is True
    assert nor_cell_pulls_down(CellState(1, CellKind.NOR), 1) is False


def test_nor_truth_table_equals_xor_as_flag():
    # enumerate all four cases for both operations and compare
    for stored, search in product((0, 1), repeat=2):
        flag = nor_cell_pulls_down(CellState(stored, CellKind.NOR), search)
        level = xor_cell_eval(CellState(stored, CellKind.XOR), search)
        assert flag == (level is Level.HIGH)


def test_cell_write_sets_and_is_idempotent():
    s = CellState(0, CellKind.NOR)
    s1 = cell_write(s, 1, DriverMode.WRITE)
    assert s1.stored == 1 and s1.kind is CellKind.NOR
    assert cell_write(s1, 1, DriverMode.WRITE).stored == 1
    # original untouched
    assert s.stored == 0


def test_cell_write_rejected_in_search_mode():
    with pytest.raises(WriteInSearchMode):
        cell_write(CellState(0, CellKind.XNOR), 1, DriverMode.SEARCH)


def test_cell_write_rejects_a_bit_outside_0_and_1():
    # refused by cell_write itself, before the new CellState checks it
    for bit in (2, -1, None):
        with pytest.raises(ValueError, match=f"^write bit must be 0 or 1, got {bit!r}$"):
            cell_write(CellState(0, CellKind.NOR), bit, DriverMode.WRITE)


def test_write_then_match():
    for kind in CellKind:
        for bit in (0, 1):
            s = cell_write(CellState(1 - bit, kind), bit, DriverMode.WRITE)
            assert xnor_cell_eval(s, bit) is Level.HIGH


def test_eval_never_mutates_state():
    s = CellState(1, CellKind.XNOR)
    xnor_cell_eval(s, 0)
    xor_cell_eval(s, 0)
    nor_cell_pulls_down(s, 0)
    assert s == CellState(1, CellKind.XNOR)


def test_cell_state_validates_bit():
    with pytest.raises(ValueError):
        CellState(2, CellKind.NOR)
