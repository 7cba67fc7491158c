from itertools import product

import pytest

from camsim import (
    BitWord,
    CamConfig,
    InvalidConfig,
    Variant,
    new_array,
    oracle_search,
    search,
    verify_randomized,
)
from camsim.verify import _flipped_gate_matches
from cell_route import FIVE_BIT_STORE, all_words, cell_level_word_outcome


def test_verify_randomized_rejects_negative_trials():
    with pytest.raises(InvalidConfig, match="trials"):
        verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), -5)


def test_verify_randomized_zero_trials_is_an_empty_pass():
    out = verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), 0)
    assert out.ok and out.cases == 0


def test_flipped_gate_mutant_matches_the_cell_level_route():
    # every variant, every query: the mutant reports exactly the words that
    # the cell and energizer models match with the energizer output inverted,
    # and without an energizer it is the sound search
    n = 5
    for k, variant in product((2, 3), Variant):
        arr = new_array(CamConfig(len(FIVE_BIT_STORE), n, k), variant, FIVE_BIT_STORE)
        for query in all_words(n):
            got = _flipped_gate_matches(arr, query)
            assert got == tuple(
                addr
                for addr, word in enumerate(FIVE_BIT_STORE)
                if cell_level_word_outcome(word, query, k, variant, flip=True)[1]
            )
            if variant is Variant.BASELINE_NOR:
                assert got == search(arr, query).matches


def test_fault_injection_breaks_oracle_agreement():
    cfg = CamConfig(4, 8, 3)
    words = [
        BitWord.from_bits(int(c) for c in text)
        for text in ("10110011", "00110011", "11111111", "00000000")
    ]
    query = words[0]
    got = _flipped_gate_matches(new_array(cfg, words=words), query)
    assert got != oracle_search(words, query)
    # the flipped gate energizes addresses 1, 2 and 3, and only address 1's
    # suffix matches on its NOR chain
    assert got == (1,)
