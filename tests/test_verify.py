from itertools import product

import pytest

import camsim.verify
from camsim import (
    BitWord,
    CamConfig,
    InvalidConfig,
    Level,
    Variant,
    new_array,
    oracle_search,
    search,
    verify_exhaustive,
    verify_randomized,
)
from camsim.verify import _flipped_gate_matches
from cell_route import FIVE_BIT_STORE, all_words


def test_verify_randomized_rejects_negative_trials():
    with pytest.raises(InvalidConfig, match="trials"):
        verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), -5)


def test_verify_randomized_zero_trials_is_an_empty_pass():
    out = verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), 0)
    assert out.ok and out.cases == 0


REFERENCE = CamConfig(256, 144, 3, seed=1)


def test_randomized_tier_searches_both_variants_against_one_oracle_scan(monkeypatch):
    searched, scans = [], []

    def counted_search(arr, query, prev_query=None):
        searched.append(arr.variant)
        return search(arr, query, prev_query)

    def counted_oracle(values, key):
        scans.append(key)
        return oracle_search(values, key)

    monkeypatch.setattr(camsim.verify, "search", counted_search)
    monkeypatch.setattr(camsim.verify, "oracle_search", counted_oracle)
    out = verify_randomized(REFERENCE, 200, 1)
    assert out.ok and out.cases == 400
    assert searched.count(Variant.SELECTIVE) == searched.count(Variant.BASELINE_NOR) == 200
    assert len(scans) == 200


def test_randomized_tier_catches_a_baseline_only_fault(monkeypatch):
    # a mutant all-NOR array that loses its last match once the store
    # outgrows the exhaustive tier's 32 words: only the randomized tier
    # holds such a store, so only a baseline check there can catch it
    def dropping(arr, query, prev_query=None):
        report = search(arr, query, prev_query)
        if arr.variant is Variant.BASELINE_NOR and arr.config.num_words > 32:
            return report._replace(matches=report.matches[:-1])
        return report

    monkeypatch.setattr(camsim.verify, "search", dropping)
    assert verify_exhaustive(1).ok
    out = verify_randomized(REFERENCE, 200, 1)
    ce = out.counterexample
    assert ce is not None and ce.context == "randomized baseline-nor"
    assert ce.expected == oracle_search([w.value for w in ce.words], ce.query.value) != ()
    assert ce.got == ce.expected[:-1]
    assert out.cases % 2 == 0  # the selective search of that query passed


def test_oracle_mutant_is_caught_on_the_duplicates_store(monkeypatch):
    # the scan decides every verdict: an oracle that loses the last address
    # of a multi-hit result must show up as a counterexample, first on the
    # exhaustive tier's only store with a repeated word
    def dropping(values, key):
        expected = oracle_search(values, key)
        return expected[:-1] if len(expected) > 1 else expected

    monkeypatch.setattr(camsim.verify, "oracle_search", dropping)
    out = verify_exhaustive(1)
    ce = out.counterexample
    assert ce is not None and ce.context == "n=4 k=2 selective store"
    assert [w.value for w in ce.words] == [3, 5, 3, 0]
    assert ce.query.value == 3
    assert ce.got == (0, 2) and ce.expected == (0,)


def test_flipped_gate_mutant_matches_the_cell_level_route():
    # every variant, every query: the mutant reports exactly the words whose
    # traced ML_EN level, inverted behind an energizer, is high and whose
    # NOR-compared bits (the suffix, or the whole baseline word) equal the
    # query's; without an energizer it is the sound search
    n = 5
    for k, variant in product((2, 3), Variant):
        arr = new_array(CamConfig(len(FIVE_BIT_STORE), n, k), variant, FIVE_BIT_STORE)
        gated = variant is Variant.SELECTIVE
        compared = (1 << (n - k if gated else n)) - 1
        for query in all_words(n):
            got = _flipped_gate_matches(arr, query)
            assert got == tuple(
                t.addr
                for t, word in zip(search(arr, query).traces, FIVE_BIT_STORE)
                if (t.ml_en is Level.HIGH) != gated
                and (word.value ^ query.value) & compared == 0
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
    assert got != oracle_search([w.value for w in words], query.value)
    # the flipped gate energizes addresses 1, 2 and 3, and only address 1's
    # suffix matches on its NOR chain
    assert got == (1,)
