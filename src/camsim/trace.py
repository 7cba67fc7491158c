"""The one per-word model, at truth level: what each word's cells do in one
search. It reads an array's stored values, bit by bit, its config and its
variant, but no fact of its gate index, and ``array`` imports nothing of
it, so it is independent of the counting path there; the tests check that
the summed per-word transitions equal each search's ``EventTotals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Optional

from .array import CamArray, Variant, _check_keys
from .cells import nor_cell_pulls_down
from .core import Level
from .mle import mle_eval


@dataclass(frozen=True)
class WordTransitions:
    """Per-word transition counts for one search.

    ``sl_toggles`` is the number of searchline columns that changed level;
    the columns are shared by every word, so each word's cells see the same
    count.
    """

    ml_en_charges: int = 0
    ml_en_discharges: int = 0
    ml_charges: int = 0
    ml_discharges: int = 0
    sl_toggles: int = 0


@dataclass(frozen=True)
class WordTrace:
    """Node levels and transition events for one word during one search.

    ``m_nodes`` holds M0 (the energizer's charge source) followed by the
    mismatch-detect nodes M1..M_{k-1}. In the all-NOR baseline the energizer
    stage does not exist: ``m_nodes`` is empty and ``ml_en`` reads high
    because the precharge device is tied straight to the supply.

    ``discharging_bit`` is the lowest mismatching cell index when the
    precharged match line was pulled low (suffix indices for the gated
    variant, any index for the baseline); all mismatching cells conduct at
    once but the line swings only once.
    """

    addr: int
    m_nodes: tuple[Level, ...]
    ml_en: Level
    ml_precharged: bool
    ml_final: Level
    discharging_bit: Optional[int]
    transitions: WordTransitions


def _bits(value: int, n: int) -> tuple[int, ...]:
    """The n bits of the n-bit int ``value``, bit 0 (its most significant)
    first."""
    return tuple(map(int, format(value, f"0{n}b")))


def word_traces(
    array: CamArray, key: int, prev_key: Optional[int] = None
) -> tuple[WordTrace, ...]:
    """Trace each word stored in ``array`` through a search of the query
    ``key`` after ``prev_key`` (None before the first search: a gated ML_EN
    starts low and all n searchlines toggle). On the selective variant the
    energizer evaluates the first k = ``mle_bits`` bits against the key's
    prefix and the previous key's, and the NOR cells cover the rest; on
    the all-NOR baseline every match line precharges and the NOR cells
    cover the whole word. The NOR scan stops at the first cell that pulls
    the line low. Before it traces anything it raises the streams'
    ``WidthMismatch`` for a key that is not an n-bit value, the key first,
    then the previous one."""
    n, k = array.config.word_bits, array.config.mle_bits
    _check_keys((key,), n, prev_key)
    gated = array.variant is Variant.SELECTIVE
    bits = _bits(key, n)
    prev = None if prev_key is None else _bits(prev_key, n)
    sl = n if prev is None else sum(map(ne, bits, prev))
    qp, pp = bits[:k], None if prev is None else prev[:k]
    out = []
    for addr, value in enumerate(array.values):
        stored = _bits(value, n)
        m_nodes, ml_en, en_prev = (), Level.HIGH, True
        if gated:
            prefix = stored[:k]
            mle = mle_eval(prefix, qp)
            m_nodes, ml_en = mle.m_nodes, mle.ml_en
            en_prev = pp is not None and mle_eval(prefix, pp).ml_en is Level.HIGH
        en = ml_en is Level.HIGH
        pulls = (
            i
            for i in range(k if gated else 0, n)
            if nor_cell_pulls_down(stored[i], bits[i])
        )
        pulled = next(pulls, None) if en else None
        fell = pulled is not None
        final = Level.from_bit(en and not fell)
        transitions = WordTransitions(
            int(en and not en_prev), int(en_prev and not en), int(en), int(fell), sl
        )
        out.append(WordTrace(addr, m_nodes, ml_en, en, final, pulled, transitions))
    return tuple(out)
