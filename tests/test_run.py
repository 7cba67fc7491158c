"""The columnar run engine: ``run_search_stream`` on int query keys against
the oracles, query by query (``oracle_search`` for the matches, the
verifier's count oracle for the counts), and its prices against
``totals_energy`` of the oracles' event totals, bit for bit."""

import gc
import re
import weakref

import pytest

from camsim import (
    CamConfig,
    EnergyModel,
    EventTotals,
    SearchRun,
    Store,
    Variant,
    WidthMismatch,
    WorkloadKind,
    WorkloadSpec,
    aggregate,
    gen_queries,
    gen_words,
    new_array,
    oracle_search,
    run_search_stream,
    search,
    sum_event_totals,
    totals_energy,
)
from cell_route import assert_run_is_oracle_run, oracle_run, query_totals

MODEL = EnergyModel(c_ml_per_cell=0.7, c_sl_per_cell=0.3, upsize_base=1.5)


def _assert_prices(run, expected, config):
    energies = aggregate(run, MODEL, config)
    assert [e.hex() for e in energies] == [
        totals_energy(t, MODEL, config).hex() for t in query_totals(expected)
    ]


def test_columns_equal_the_oracles_on_every_exhaustive_store(exhaustive_tier):
    # Every store and query universe of the verifier's exhaustive tier, on
    # both variants, first from power-up and then threaded after a query.
    stores = exhaustive_tier.stores
    assert exhaustive_tier.outcome.ok
    assert len(stores) == 260
    searches = 0
    types = set()
    for config, store, queries, _ in stores:
        for variant in Variant:
            arr = new_array(config, variant, store)
            for prev in (None, queries[-1]):
                run = run_search_stream(arr, queries, prev)
                assert_run_is_oracle_run(run, arr, queries, prev)
                _assert_prices(run, oracle_run(arr, queries, prev), config)
                searches += len(run)
                for column in (
                    run.energized, run.ml_en_transitions, run.sl_toggles,
                    run.ml_discharges, [run.energizers],
                    [a for m in run.matches for a in m],
                ):
                    types |= {*map(type, column)}
    assert searches == 2 * 24192
    # The row template writes each count as its str, which is a JSON
    # integer only for an int, so a float or bool in any column fails here.
    assert types == {int}


def test_all_nor_columns_are_constants(exhaustive_tier):
    # The all-NOR array has no gate: every search precharges all N lines
    # and no ML_EN changes, on every exhaustive store after power-up and
    # after a mid-universe key, and on a long stream at the reference
    # geometry.
    cases = []
    for config, store, queries, _ in exhaustive_tier.stores:
        arr = new_array(config, Variant.BASELINE_NOR, store)
        cases += [(arr, queries, None), (arr, queries, 1 << (config.word_bits - 1))]
    words = gen_words(256, 144, 1)
    arr = new_array(CamConfig(256, 144, 3, seed=1), Variant.BASELINE_NOR, words)
    keys = gen_queries(WorkloadSpec(WorkloadKind.UNIFORM, 513, 1), words)
    cases += [(arr, keys[1:], None), (arr, keys[1:], keys[0])]
    assert len(cases) == 2 * 260 + 2
    for arr, keys, prev in cases:
        assert arr._runs == ()
        run = run_search_stream(arr, keys, prev)
        assert run.energized == [arr.config.num_words] * len(keys)
        assert run.ml_en_transitions == [0] * len(keys)
        assert run.energizers == 0


@pytest.mark.parametrize("seed", [1, 97])
@pytest.mark.parametrize(
    "kind", [WorkloadKind.UNIFORM, WorkloadKind.PLANTED, WorkloadKind.PREFIX_SKEWED]
)
def test_columns_equal_the_oracles_at_reference_geometry(kind, seed):
    config = CamConfig(256, 144, 3, seed=seed)
    words = gen_words(256, 144, seed)
    spec = WorkloadSpec(
        kind, 300, seed,
        match_rate=0.5 if kind is WorkloadKind.PLANTED else None,
        bias=0.9 if kind is WorkloadKind.PREFIX_SKEWED else None,
    )
    queries = gen_queries(spec, words)
    for variant in Variant:
        arr = new_array(config, variant, words)
        for prev in (None, queries[0]):
            run = run_search_stream(arr, queries[1:], prev)
            assert_run_is_oracle_run(run, arr, queries[1:], prev)
            _assert_prices(run, oracle_run(arr, queries[1:], prev), config)
            if kind is WorkloadKind.PLANTED:
                assert sum(map(bool, run.matches)) > 100


def test_run_takes_any_sequence_of_queries():
    config = CamConfig(16, 12, 3, seed=5)
    words = gen_words(16, 12, 5)
    queries = gen_queries(WorkloadSpec(WorkloadKind.PLANTED, 20, 5, match_rate=0.5), words)
    arr = new_array(config, Variant.SELECTIVE, words)
    run = run_search_stream(arr, queries)
    assert type(run) is SearchRun
    assert run_search_stream(arr, tuple(queries)) == run
    # The stream reads its keys more than once, so a one-shot iterator is
    # refused rather than searched in part.
    runs = []
    with pytest.raises(ValueError, match=r"^keys was read up .*pass a list"):
        runs.append(run_search_stream(arr, iter(queries)))
    assert runs == []


@pytest.mark.parametrize("variant", Variant)
def test_empty_stream_gives_an_empty_run(variant):
    config = CamConfig(4, 6, 2)
    arr = new_array(config, variant, gen_words(4, 6, 1))
    for prev in (None, 5, 1 << 7, -1):
        run = run_search_stream(arr, [], prev)
        assert len(run) == 0 and not run
        assert sum_event_totals(run) == EventTotals()
        assert aggregate(run, MODEL, config) == []


@pytest.mark.parametrize("variant", Variant)
def test_a_run_does_not_keep_its_array_alive(variant):
    # a run holds its columns and one int, never the array it searched
    config = CamConfig(16, 12, 3, seed=5)
    words = gen_words(16, 12, 5)
    arr = new_array(config, variant, words)
    array_ref = weakref.ref(arr)
    run = run_search_stream(arr, list(words))
    del arr
    gc.collect()
    assert array_ref() is None
    assert len(run) == 16
    assert run.energizers == (16 if variant is Variant.SELECTIVE else 0)


# (keys, prev_key) -> the message of the first key that is not a 6-bit
# value (negative, or 64 or more), in the order q0, prev_key, q1, ... in
# which a query-by-query search meets them.
KEY_RANGE_CASES = [
    (([64, 1, 1], None), "query 0: key 0x40 does not fit in word_bits 6"),
    (([-1, 1, 1], 256), "query 0: key -0x1 does not fit in word_bits 6"),
    (([1, 1, 1], -2), "previous query: key -0x2 does not fit in word_bits 6"),
    (([1, 512, 1], 64), "previous query: key 0x40 does not fit in word_bits 6"),
    (([1, 512, -1], None), "query 1: key 0x200 does not fit in word_bits 6"),
    (([63, 0, -5], 0), "query 2: key -0x5 does not fit in word_bits 6"),
]


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("case, message", KEY_RANGE_CASES)
def test_width_errors_come_in_search_order(variant, case, message):
    # searched query by query, each key is the query 0 of its own one-key
    # stream, after the key before it: the same key fails first
    keys, prev_key = case
    arr = new_array(CamConfig(4, 6, 2), variant, gen_words(4, 6, 1))
    one_key = re.sub(r"^query \d+", "query 0", message)
    with pytest.raises(WidthMismatch, match=f"^{one_key}$"):
        for key in keys:
            search(arr, key, prev_key)
            prev_key = key


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("case, message", KEY_RANGE_CASES)
def test_key_range_errors_come_in_search_order(variant, case, message):
    keys, prev_key = case
    arr = new_array(CamConfig(4, 6, 2), variant, gen_words(4, 6, 1))
    with pytest.raises(WidthMismatch, match=f"^{message}$"):
        run_search_stream(arr, keys, prev_key)


@pytest.mark.parametrize("variant", Variant)
def test_stream_refuses_text_queries(variant):
    # A word's text in place of an int key, in the stream or as the
    # previous key, is a TypeError, not a silently wrong run.
    arr = new_array(CamConfig(4, 6, 2), variant, gen_words(4, 6, 1))
    word = "000001"
    for keys, prev in (([word], None), ([word, word], None), ([1, 2], word)):
        with pytest.raises(TypeError):
            run_search_stream(arr, keys, prev)


@pytest.mark.parametrize("variant", Variant)
def test_a_hit_on_every_line_lists_every_address(variant):
    # 256 copies of one word; a stored word twice among other values; and
    # 0, 1 or 5 copies of a key among distinct words, those at even
    # addresses sorting before the key's prefix, so its gated run starts
    # past entry 0. The run and search list the oracle's ascending addresses.
    config = CamConfig(256, 12, 3)
    key = 0b101_000000011
    mixed = [(7 * i) % 4096 for i in range(256)]
    mixed[200] = mixed[3]
    stores = [([key] * 256, key), (mixed, mixed[3])]
    for hits in (0, 1, 5):
        values = [(2, 5)[a % 2] << 9 | (4 + a) for a in range(256)]
        for j in range(hits):
            values[7 * j + 1] = key
        stores.append((values, key))
    assert [len(oracle_search(*store)) for store in stores] == [256, 2, 0, 1, 5]
    for values, query_value in stores:
        want = oracle_search(values, query_value)
        arr = new_array(config, variant, Store(values, 12))
        assert search(arr, query_value).matches == [want]
        keys = [query_value, query_value]
        assert run_search_stream(arr, keys).matches == [want, want]


# Stores of 8 six-bit words at k = 3 for the stream's set lookup, each
# searched with every six-bit key.
MEMBERSHIP_STORES = {
    # Prefixes 0, 3 and 7 only: the empty buckets 1-2 and 4-6 each share one
    # run tuple, which starts where the next occupied bucket's run does.
    "repeated-runs": [1, 3, 24, 27, 29, 56, 60, 63],
    "one-bucket": [40 + a for a in range(8)],  # every word has prefix 5
    "duplicates": [9, 9, 40, 9, 40, 63, 0, 0],
}


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("store", [*MEMBERSHIP_STORES, "planted-all-hit"])
def test_stream_membership_equals_the_oracles(variant, store):
    if store in MEMBERSHIP_STORES:
        config, values = CamConfig(8, 6, 3), MEMBERSHIP_STORES[store]
        queries = list(range(64))
    else:
        config = CamConfig(64, 12, 3, seed=3)
        values = gen_words(64, 12, 3)
        spec = WorkloadSpec(WorkloadKind.PLANTED, 200, 3, match_rate=1.0)
        queries = gen_queries(spec, values)
    arr = new_array(config, variant, Store(values, config.word_bits))
    want = [oracle_search(values, key) for key in queries]
    if store == "planted-all-hit":
        assert all(want)  # every query takes the hit path
    for prev in (None, queries[-1]):
        run = run_search_stream(arr, queries, prev)
        assert list(run.matches) == want
        assert_run_is_oracle_run(run, arr, queries, prev)
