"""Truth-level models of the three CAM cells.

Each cell compares one stored bit with one search bit, so each model is a
pure function of the two ints, ``(stored, search_bit)``, and both must be 0
or 1. Wire-level effects (charge sharing) are not modeled.
"""

from __future__ import annotations

from .core import Level


def _check_bits(stored: int, search_bit: int) -> None:
    if stored not in (0, 1):
        raise ValueError(f"stored bit must be 0 or 1, got {stored!r}")
    if search_bit not in (0, 1):
        raise ValueError(f"search bit must be 0 or 1, got {search_bit!r}")


def xnor_cell_eval(stored: int, search_bit: int) -> Level:
    """First-stage cell: output goes high on bit match.

    This node is M0, the charge source for the whole energizer chain; on a
    mismatch no charge is available and the match line stays low.
    """
    _check_bits(stored, search_bit)
    return Level.from_bit(search_bit == stored)


def xor_cell_eval(stored: int, search_bit: int) -> Level:
    """First-stage cell for positions 1..k-1: output goes high on mismatch,
    exactly the complement of the XNOR cell."""
    _check_bits(stored, search_bit)
    return Level.from_bit(search_bit != stored)


def nor_cell_pulls_down(stored: int, search_bit: int) -> bool:
    """Second-stage cell: True when a pull-down path to ground exists
    (bit mismatch); a matching cell leaves the match line untouched."""
    _check_bits(stored, search_bit)
    return search_bit != stored
