"""Shared test helpers: the cell-level route, an independent model of one
word's search outcome, and the small stores the search tests sweep."""

from camsim import (
    BitWord,
    CellKind,
    CellState,
    Level,
    Variant,
    mle_eval,
    nor_cell_pulls_down,
)


def all_words(n):
    return [BitWord(n, v) for v in range(1 << n)]


# 13 five-bit words: every bucket occupied at k = 2 and 3, and 7 stored twice
FIVE_BIT_STORE = [BitWord(5, 7 * i % 32) for i in range(12)] + [BitWord(5, 7)]


def cell_level_word_outcome(word, query, k, variant, flip=False):
    """Independent route: evaluate one word with the cell/energizer models,
    bit by bit, and return (precharged, matched, discharging_bit). ``flip``
    inverts the energizer output, as the verifier's injected fault does."""
    if variant is Variant.SELECTIVE:
        en = mle_eval(word.prefix_bits(k), query.prefix_bits(k)).ml_en is Level.HIGH
        en = en != flip
        suffix = range(k, word.width)
    else:
        en = True
        suffix = range(word.width)
    if not en:
        return False, False, None
    pulls = [
        i
        for i in suffix
        if nor_cell_pulls_down(CellState(word.bit(i), CellKind.NOR), query.bit(i))
    ]
    if pulls:
        return True, False, pulls[0]
    return True, True, None
