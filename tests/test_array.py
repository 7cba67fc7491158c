import copy
import pickle
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camsim.verify
from camsim import (
    CamArray,
    CamConfig,
    EventTotals,
    InvalidConfig,
    Level,
    SearchRun,
    Variant,
    WidthMismatch,
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
    mle_eval,
    new_array,
    oracle_search,
    run_search_stream,
    search,
    sum_event_totals,
    word_traces,
)
from camsim.array import Store
from camsim.cli import main
from camsim.draws import Stream
from camsim.verify import (
    _check_columns,
    _fault_run,
    _key_columns,
    _search_run,
    _store,
    verify_exhaustive,
)
from cell_route import FIVE_BIT_STORE, assert_traces_explain, one_key_runs


def w(text):
    return int(text, 2)


def bits(key, n):
    """The n bits of the n-bit ``key``, bit 0 (its most significant) first."""
    return tuple(int(b) for b in format(key, f"0{n}b"))


# ---------------------------------------------------------------- creation


def test_new_array_reference_geometry():
    cfg = CamConfig(256, 144, 3)
    arr = new_array(cfg, Variant.SELECTIVE, Store([0] * 256, 144))
    assert arr.values == (0,) * 256 and arr.config.word_bits == 144


def test_new_array_rejects_one_bit_prefix():
    with pytest.raises(InvalidConfig):
        CamConfig(4, 8, 1)


def test_array_validates_word_count_and_width():
    cfg = CamConfig(2, 8, 3)
    with pytest.raises(InvalidConfig, match="^expected 2 words, got 1$"):
        new_array(cfg, Variant.SELECTIVE, Store([0], 8))
    # a store's width is checked before its length
    for values in ([0, 0], [0]):
        with pytest.raises(WidthMismatch, match="^stored word width 7 != word_bits 8$"):
            new_array(cfg, Variant.SELECTIVE, Store(values, 7))
    # a store checks that each value fits in its width, once, when built
    out_of_range = "^a stored value does not fit in word_bits 8$"
    for values in ((0, 256), (-1, 0)):
        with pytest.raises(WidthMismatch, match=out_of_range):
            Store(values, 8)
    # an array built from ints checks that each one is an n-bit value
    for variant in Variant:
        with pytest.raises(InvalidConfig, match="expected 2 words, got 1"):
            CamArray(cfg, (0,), variant)
        with pytest.raises(WidthMismatch, match="^stored word width 9 != word_bits 8$"):
            CamArray(cfg, Store([0, 0], 9), variant)
        for values in ((0, 256), (-1, 0)):
            with pytest.raises(WidthMismatch, match=out_of_range):
                CamArray(cfg, values, variant)
        # and equals, hashes and prints as the array of the same words
        arr = CamArray(cfg, [255, 0], variant)
        built = new_array(cfg, variant, Store([255, 0], 8))
        assert type(arr.values) is Store and arr.values == (255, 0)
        assert arr == built and hash(arr) == hash(built) and repr(arr) == repr(built)


def test_a_store_copies_and_pickles_with_its_width():
    store = Store([5, 0, 5], 3)
    assert store.addresses == {5: (0, 2), 0: (1,)}
    twins = copy.copy(store), copy.deepcopy(store), pickle.loads(pickle.dumps(store))
    for twin in twins:
        assert type(twin) is Store and twin == store and twin.width == 3
    arr = new_array(CamConfig(3, 3, 2), Variant.SELECTIVE, store)
    assert copy.deepcopy(arr) == arr


# -------------------------------------------------------- one store, gates


def test_gates_made_by_replace_share_one_store():
    # a second variant or prefix width over the same words keeps the array's
    # Store, so every gate reads one value index, as does a new array of
    # that Store, and streams as an array of a new Store of the same words
    # does; a repeated value keeps both addresses
    cfg = CamConfig(16, 24, 3)
    values = list(gen_words(16, 24, 7))
    values[5] = values[3]
    words = Store(values, 24)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 300, 7, match_rate=0.5)
    keys = gen_queries(spec, words)
    first = new_array(cfg, Variant.SELECTIVE, words)
    gates = [first, replace(first, variant=Variant.BASELINE_NOR)]
    for k in (2, 4, 6):
        gates += [replace(gate, config=replace(cfg, mle_bits=k)) for gate in gates[:2]]
    for arr in gates:
        assert new_array(arr.config, arr.variant, words).values is words
        fresh = new_array(arr.config, arr.variant, Store(values, 24))
        assert arr.values is first.values is words and arr == fresh
        assert run_search_stream(arr, keys) == run_search_stream(fresh, keys)
        assert arr.values.addresses is first.values.addresses
        assert fresh.values.addresses is not first.values.addresses
    assert first.values.addresses[words[3]] == (3, 5)


def test_single_searches_of_one_array_build_its_index_once(index_builds):
    # the index is built lazily, on the first search, and kept by the store
    cfg = CamConfig(16, 24, 3)
    words = gen_words(16, 24, 7)
    arr = new_array(cfg, Variant.SELECTIVE, words)
    assert index_builds == []
    prev = None
    for value in words[:10]:
        assert search(arr, value, prev).matches == [oracle_search(arr.values, value)]
        prev = value
    assert len(index_builds) == 1 and index_builds[0] is arr.values


def _grouped_walk(values):
    """Each stored value's ascending addresses from one walk of the whole
    store that groups every value through lists: the reference for
    ``Store.addresses``, which regroups only the repeated values."""
    grouped = {}
    for addr, value in enumerate(values):
        grouped.setdefault(value, []).append(addr)
    return {value: tuple(addrs) for value, addrs in grouped.items()}


def _with_repeats(where):
    """40 distinct 12-bit values, then one or two values repeated at the
    start, in the middle, at the end or at all three."""
    values = [37 * i % 4096 for i in range(40)]
    if where in ("start", "all"):
        values[1] = values[3] = values[0]
    if where in ("middle", "all"):
        values[21] = values[19]
        values[25] = values[20]
    if where in ("end", "all"):
        values[-1] = values[-3] = values[-2]
    return values


@pytest.mark.parametrize("where", ["none", "start", "middle", "end", "all"])
def test_store_addresses_equal_the_grouped_walk(monkeypatch, where):
    # the oracle stays independent of the engine's dict: building the dict
    # never scans with it
    monkeypatch.setattr(camsim.array, "oracle_search", None)
    values = _with_repeats(where)
    got = Store(values, 12).addresses
    assert got == _grouped_walk(values) and list(got) == list(_grouped_walk(values))
    assert all(list(a) == sorted(set(a)) for a in got.values())
    repeated = {v: a for v, a in got.items() if len(a) > 1}
    groups = {"none": 0, "start": 1, "middle": 2, "end": 1, "all": 4}
    assert len(repeated) == groups[where]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 15), max_size=40))
def test_store_addresses_equal_the_grouped_walk_on_random_stores(values):
    assert Store(values, 4).addresses == _grouped_walk(values)


@pytest.mark.parametrize("argv, built", [
    (["compare"], 1),
    (["search"], 1),
    (["search", "--variant", "baseline-nor"], 0),
    (["sweep"], 5),
])
def test_only_a_gated_array_builds_a_prefix_histogram(
    histogram_builds, tmp_path, argv, built
):
    # the all-NOR array has no gate, so neither new_array nor the replace
    # that compare makes it with builds a histogram; sweep builds one
    # gated array, and so one histogram, for each k = 2..6
    assert main([*argv, "--queries", "10", "--out", str(tmp_path / "r")]) == 0
    assert len(histogram_builds) == built


def test_the_exhaustive_tier_builds_one_histogram_per_store(histogram_builds):
    # each store's all-NOR array is its gated one with the variant replaced
    assert verify_exhaustive(1).ok
    assert len(histogram_builds) == 260


# ------------------------------------------------------------------ writes


def test_write_then_search_matches():
    cfg = CamConfig(4, 8, 3)
    words = Store([0, 0, 0b10110011, 0], 8)
    run = search(new_array(cfg, Variant.SELECTIVE, words), w("10110011"))
    assert run.matches == [(2,)]


def test_duplicate_words_both_match():
    cfg = CamConfig(3, 8, 3)
    words = Store([0b10110011, 0, 0b10110011], 8)
    arr = new_array(cfg, Variant.SELECTIVE, words)
    assert search(arr, w("10110011")).matches == [(0, 2)]


# ----------------------------------------------------------------- search


def test_search_width_guards():
    arr = new_array(CamConfig(2, 8, 3), Variant.SELECTIVE, Store([0] * 2, 8))
    message = "^query 0: key 0x100 does not fit in word_bits 8$"
    with pytest.raises(WidthMismatch, match=message):
        search(arr, 256)
    with pytest.raises(WidthMismatch, match="^previous query: key -0x1 does not fit"):
        search(arr, 0, prev_key=-1)
    # the query is checked before the previous key
    with pytest.raises(WidthMismatch, match="^query 0: key -0x1 does not fit"):
        search(arr, -1, prev_key=256)


def test_single_match_energizes_one_line():
    # stored equals the query at addr 5; everyone else differs in bit 0
    cfg = CamConfig(8, 8, 3)
    query = w("10110011")
    values = [query ^ 0x80] * 8
    values[5] = query
    run = search(new_array(cfg, Variant.SELECTIVE, Store(values, 8)), query)
    assert run.matches == [(5,)]
    assert run.energized == [1]
    assert run.ml_discharges == [0]


def test_shared_prefix_energizes_all_and_discharges_all():
    # every word carries the query's first 3 bits but differs later
    cfg = CamConfig(8, 8, 3)
    query = w("10110011")
    words = Store([(query >> 5 << 5) | i for i in range(8)], 8)
    run = search(new_array(cfg, Variant.SELECTIVE, words), query)
    assert run.energized == [8]
    (matches,) = run.matches
    assert matches == tuple(a for a, word in enumerate(words) if word == query)
    assert run.ml_discharges == [8 - len(matches)]


def test_exhaustive_full_table_equals_oracle():
    # all 16 distinct words stored, every possible query, k=2
    cfg = CamConfig(16, 4, 2)
    values = list(range(16))
    arr = new_array(cfg, Variant.SELECTIVE, Store(values, 4))
    got = run_search_stream(arr, values).matches
    assert got == [oracle_search(values, v) for v in values] == [(v,) for v in values]


def test_empty_store_oracle():
    assert oracle_search([], 3) == ()


def test_oracle_absent_key():
    assert oracle_search([1, 2, 4], 3) == ()


def test_oracle_single_word():
    assert oracle_search([3], 3) == (0,)


def test_oracle_duplicates_ascend():
    assert oracle_search([7, 3, 7, 0, 7], 7) == (0, 2, 4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 15), max_size=24),
    st.integers(0, 15),
    st.sampled_from([list, tuple, lambda values: Store(values, 4)]),
    st.booleans(),
    st.booleans(),
)
def test_oracle_is_a_linear_scan(values, key, kind, at_first, at_last):
    # the key is stored again at address 0 and at address N - 1 when drawn so
    values = kind([key] * at_first + values + [key] * at_last)
    assert oracle_search(values, key) == tuple(
        a for a, v in enumerate(values) if v == key
    )


def test_oracle_width_guard(monkeypatch):
    # the oracle scans ints, so the verifier rejects a width that does not
    # fit before any scan, stream or search: a stored word's in new_array,
    # and every key of a store's keys, or of a randomized chunk's, in
    # _key_columns, which builds the count oracle's key columns once for
    # every store that shares the keys, before the column check that both
    # tiers share runs any engine: the sound one, single search or the
    # fault mutant.
    calls = []
    for name in ("search", "run_search_stream", "oracle_search"):
        monkeypatch.setattr(camsim.verify, name, lambda *a: calls.append(a))
    cfg = CamConfig(2, 4, 2)

    # the sound engine is verify's run_search_stream, patched above
    for engine in (camsim.verify.run_search_stream, _search_run, _fault_run):

        def check(words, keys):
            store = _store(cfg, words)
            return _check_columns(store, keys, _key_columns(keys, 4, 2), engine, "{}")

        with pytest.raises(
            WidthMismatch, match="^query 1: key 0x10 does not fit in word_bits 4$"
        ):
            check(Store([0] * 2, 4), [1, 16])
        with pytest.raises(WidthMismatch, match="stored word width 5"):
            check(Store([0] * 2, 5), [0])
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(2, min(3, n - 1)),
            st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=24),
            st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=12),
        )
    )
)
def test_search_equals_oracle_on_random_arrays(case):
    n, k, stored, queries = case
    cfg = CamConfig(len(stored), n, k)
    for variant in (Variant.SELECTIVE, Variant.BASELINE_NOR):
        arr = new_array(cfg, variant, Store(stored, n))
        prev = None
        for qv in queries:
            assert search(arr, qv, prev).matches == [oracle_search(stored, qv)]
            prev = qv


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=16),
    st.integers(0, 63),
)
def test_word_outcomes_match_cell_level_route(stored, qv):
    n, k = 6, 3
    cfg = CamConfig(len(stored), n, k)
    for variant in (Variant.SELECTIVE, Variant.BASELINE_NOR):
        arr = new_array(cfg, variant, Store(stored, n))
        (matches,) = search(arr, qv).matches
        gated = variant is Variant.SELECTIVE
        for trace, word in zip(word_traces(arr, qv), stored):
            en = not gated or word >> (n - k) == qv >> (n - k)
            diff = word ^ qv
            lowest = n - diff.bit_length() if en and diff else None
            assert trace.ml_precharged == en
            assert (trace.ml_final is Level.HIGH) == (trace.addr in matches)
            assert trace.discharging_bit == lowest


# ----------------------------------------------------------------- traces


def test_trace_invariants_selective():
    cfg = CamConfig(16, 6, 3)
    values = list(range(16, 32))
    arr = new_array(cfg, Variant.SELECTIVE, Store(values, 6))
    query = 0b010110
    run = search(arr, query)
    traces = word_traces(arr, query)
    assert len(traces) == 16
    for t in traces:
        assert t.ml_precharged == (t.ml_en is Level.HIGH)
        if t.ml_final is Level.HIGH:
            assert t.ml_precharged and t.discharging_bit is None
        if t.discharging_bit is not None:
            assert t.ml_precharged and t.ml_final is Level.LOW
            assert 3 <= t.discharging_bit < 6
        if not t.ml_precharged:
            assert t.transitions.ml_discharges == 0
        # selective energization depends on the prefix only
        assert t.ml_precharged == (values[t.addr] >> 3 == query >> 3)
    assert run.energized == [sum(t.ml_precharged for t in traces)]
    assert set(run.matches[0]) == {
        t.addr for t in traces if t.ml_final is Level.HIGH
    }


def test_trace_m_nodes_match_energizer():
    cfg = CamConfig(4, 6, 3)
    words = [w("101010"), w("001010"), w("111010"), w("100010")]
    query = w("101110")
    arr = new_array(cfg, Variant.SELECTIVE, Store(words, 6))
    for t, word in zip(word_traces(arr, query), words):
        assert t.m_nodes == mle_eval(bits(word, 6)[:3], bits(query, 6)[:3]).m_nodes
    # every stored/search prefix pair at every supported width
    for k in range(2, 7):
        words = [p << 2 | 1 for p in range(1 << k)]
        store = Store(words, k + 2)
        arr = new_array(CamConfig(len(words), k + 2, k), Variant.SELECTIVE, store)
        for qp in range(1 << k):
            query = qp << 2
            for t, word in zip(word_traces(arr, query), words):
                want = mle_eval(bits(word, k + 2)[:k], bits(query, k + 2)[:k])
                assert t.m_nodes == want.m_nodes
                assert t.ml_en is want.ml_en


def test_baseline_traces_have_no_energizer_nodes():
    cfg = CamConfig(4, 6, 3)
    arr = new_array(cfg, Variant.BASELINE_NOR, Store([0, 1, 2, 3], 6))
    for t in word_traces(arr, 2):
        assert t.m_nodes == ()
        assert t.ml_en is Level.HIGH
        assert t.ml_precharged


def test_trace_totals_are_consistent():
    # every variant, every query, after no previous query, one with the same
    # prefix and one with a different prefix
    n = 5
    for k, variant in product((2, 3), Variant):
        cfg = CamConfig(len(FIVE_BIT_STORE), n, k)
        arr = new_array(cfg, variant, FIVE_BIT_STORE)
        for query in range(1 << n):
            same_prefix = query ^ 1
            other_prefix = query ^ (1 << (n - 1))
            for prev in (None, same_prefix, other_prefix):
                r, traces = assert_traces_explain(arr, query, prev)
                gated = variant is Variant.SELECTIVE
                assert r.energizers == (cfg.num_words if gated else 0)
                for x, word in zip(traces, FIVE_BIT_STORE):
                    en = not gated or word >> (n - k) == query >> (n - k)
                    diff = word ^ query
                    assert x.ml_precharged == en
                    lowest = n - diff.bit_length() if en and diff else None
                    assert (x.ml_final is Level.HIGH) == (en and not diff)
                    assert x.discharging_bit == lowest
                    if prev is None:  # ML_EN starts low behind an energizer
                        en_prev = not gated
                    else:
                        en_prev = not gated or word >> (n - k) == prev >> (n - k)
                    assert x.transitions.ml_en_charges == int(en and not en_prev)
                    assert x.transitions.ml_en_discharges == int(en_prev and not en)


def _index_stores(n, k, size):
    """Stores of ``size`` n-bit words with a 2-bit suffix, so duplicates are
    common: seeded random words (empty buckets while size < 2^k), one shared
    prefix, and two words repeated."""
    seed = n * 100 + size
    shared = 1 << (n - k)
    draws = Stream(b"index", seed)
    return (
        Store(draws.bits_column(size, n), n),
        Store([shared | v for v in draws.bits_column(size, 2)], n),
        Store([(5, 2 ** n - 3)[i % 2] for i in range(size)], n),
    )


def _assert_index_equals_scan(arr):
    """The gated array's histogram against a scan of the stored prefixes
    (the all-NOR array keeps none): each search prefix's energized count
    (an empty bucket energizes no line, the all-NOR array all N) from
    ``run_search_stream``, and the ML_EN transitions of every (prefix,
    previous prefix or None) pair (none on the all-NOR array): one stream
    of one key per prefix after None, and one stream of the keys pp, qp for
    every pair, whose odd positions are each qp after its pp."""
    n, k = arr.config.word_bits, arr.config.mle_bits
    gated = arr.variant is Variant.SELECTIVE
    prefixes = [value >> (n - k) for value in arr.values]
    # the number of lines whose ML_EN is high for search prefix p
    enabled = [
        sum(1 for stored in prefixes if not gated or stored == p)
        for p in range(1 << k)
    ]
    keys = [p << (n - k) for p in range(1 << k)]
    assert arr._runs == (tuple(enabled) if gated else ())
    assert run_search_stream(arr, keys).energized == enabled
    firsts = [run_search_stream(arr, [key]) for key in keys]
    assert [run.energized[0] for run in firsts] == enabled
    from_idle = enabled if gated else [0] * len(keys)
    assert [run.ml_en_transitions[0] for run in firsts] == from_idle
    pairs = list(product(range(1 << k), repeat=2))
    walk = [keys[p] for pair in pairs for p in pair]
    run = run_search_stream(arr, walk)
    assert run.energized[1::2] == [enabled[qp] for _, qp in pairs]
    assert run.ml_en_transitions[1::2] == [
        0 if not gated or pp == qp else enabled[qp] + enabled[pp] for pp, qp in pairs
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_gate_index_equals_prefix_scan(k):
    # sizes 1..40 cross 2^k for every k up to 5
    n = k + 2
    for size in range(1, 41):
        cfg = CamConfig(size, n, k)
        for words, variant in product(_index_stores(n, k, size), Variant):
            arr = new_array(cfg, variant, words)
            _assert_index_equals_scan(arr)
            # flip word 0's last prefix bit, moving it to another bucket
            moved = words[0] ^ (1 << (n - k))
            arr = new_array(cfg, variant, Store([moved, *words[1:]], n))
            _assert_index_equals_scan(arr)
            if size % 8 == 1:  # every query against a sample of the stores
                stored = list(arr.values)
                queries = range(1 << n)
                got = run_search_stream(arr, queries).matches
                assert got == [oracle_search(stored, key) for key in queries]


def test_searchline_toggle_counting():
    cfg = CamConfig(2, 8, 3)
    arr = new_array(cfg, Variant.SELECTIVE, Store([0] * 2, 8))
    q1, q2 = w("10110011"), w("10010111")
    first = search(arr, q1)
    assert first.sl_toggles == [8]  # first search drives every column
    second = search(arr, q2, prev_key=q1)
    delta = sum(a != b for a, b in zip(bits(q1, 8), bits(q2, 8)))
    assert second.sl_toggles == [delta] == [2]
    same = search(arr, q2, prev_key=q2)
    assert same.sl_toggles == [0]


def test_ml_en_transitions_against_cell_route():
    cfg = CamConfig(8, 6, 2)
    words = list(range(8, 16))
    arr = new_array(cfg, Variant.SELECTIVE, Store(words, 6))
    q1, q2 = 0b001100, 0b011100
    run = search(arr, q2, prev_key=q1)
    charges = discharges = 0
    for word in words:
        before = mle_eval(bits(word, 6)[:2], bits(q1, 6)[:2]).ml_en
        after = mle_eval(bits(word, 6)[:2], bits(q2, 6)[:2]).ml_en
        charges += before is Level.LOW and after is Level.HIGH
        discharges += before is Level.HIGH and after is Level.LOW
    assert run.ml_en_transitions == [charges + discharges]
    trs = word_traces(arr, q2, q1)
    assert sum(t.transitions.ml_en_charges for t in trs) == charges
    assert sum(t.transitions.ml_en_discharges for t in trs) == discharges


def test_suffix_change_never_affects_energization():
    cfg = CamConfig(1, 8, 3)
    query = w("10110011")
    for suffix in range(32):
        word = Store([(query >> 5 << 5) | suffix], 8)
        run = search(new_array(cfg, Variant.SELECTIVE, word), query)
        assert run.energized == [1]
    flipped = Store([query ^ 0x80], 8)
    run = search(new_array(cfg, Variant.SELECTIVE, flipped), query)
    assert run.energized == [0]


def test_baseline_dominance():
    cfg = CamConfig(8, 8, 3)
    words = Store([31 * i % 256 for i in range(8)], 8)
    query = w("01010101")
    sel = search(new_array(cfg, Variant.SELECTIVE, words), query)
    base = search(new_array(cfg, Variant.BASELINE_NOR, words), query)
    assert sel.energized[0] <= base.energized[0]
    assert base.energized == [8]
    assert sel.matches == base.matches
    # equality only when every stored prefix matches the query prefix
    shared = Store([(query >> 5 << 5) | i for i in range(8)], 8)
    sel2 = search(new_array(cfg, Variant.SELECTIVE, shared), query)
    assert sel2.energized == [8]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 5), st.integers(0, 255)),
            st.tuples(st.just("search"), st.integers(0, 255), st.integers(0, 255)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_write_search_interleaving_matches_oracle(ops):
    cfg = CamConfig(6, 8, 3)
    stored = [0] * 6
    arr = new_array(cfg, Variant.SELECTIVE, Store(stored, 8))
    prev = None
    for op in ops:
        if op[0] == "write":
            _, addr, value = op
            stored[addr] = value
            arr = new_array(cfg, Variant.SELECTIVE, Store(stored, 8))
        else:
            _, qv, _ = op
            assert search(arr, qv, prev).matches == [oracle_search(stored, qv)]
            prev = qv


@st.composite
def _repeat_scans(draw):
    """An 8-bit, k = 3 store with one value at two or more scattered
    addresses (so repeats share one gated bucket), other words drawn from
    that bucket or anywhere, a query, a previous query that is None or has
    the same or another prefix, and one later write."""
    n, k = 8, 3
    shift = n - k
    size = draw(st.integers(1, 24))
    repeated = draw(st.integers(0, 2**n - 1))
    same_bucket = st.integers(0, 2**shift - 1).map(
        lambda suffix: repeated >> shift << shift | suffix
    )
    values = draw(
        st.lists(
            st.one_of(st.just(repeated), same_bucket, st.integers(0, 2**n - 1)),
            min_size=size,
            max_size=size,
        )
    )
    for addr in draw(st.sets(st.integers(0, size - 1), min_size=min(2, size))):
        values[addr] = repeated
    query = draw(st.one_of(st.just(repeated), st.sampled_from(values), same_bucket))
    qp = query >> shift
    prev = draw(
        st.one_of(
            st.none(),
            st.integers(0, 2**shift - 1).map(lambda suffix: qp << shift | suffix),
            st.tuples(st.integers(1, 2**k - 1), st.integers(0, 2**shift - 1)).map(
                lambda t: (qp + t[0]) % 2**k << shift | t[1]
            ),
        )
    )
    write = (
        draw(st.integers(0, size - 1)),
        draw(st.one_of(st.just(repeated), st.integers(0, 2**n - 1))),
    )
    return n, k, values, query, prev, write


def _assert_scan(arr, values, query, prev):
    assert arr.values == tuple(values)
    want = oracle_search(values, query)
    assert list(want) == sorted(set(want))
    r = search(arr, query, prev)
    run = run_search_stream(arr, [query], prev)
    assert r.matches == run.matches == [want]
    n, k = arr.config.word_bits, arr.config.mle_bits
    gated = arr.variant is Variant.SELECTIVE
    assert r.energized[0] == run.energized[0] == sum(
        1 for v in values if not gated or v >> (n - k) == query >> (n - k)
    )


@settings(max_examples=150, deadline=None)
@given(_repeat_scans())
def test_repeated_values_come_back_ascending(case):
    # one value at scattered addresses: search and the stream both list
    # every address that stores it, ascending, on both variants
    n, k, values, query, prev, (addr, wv) = case
    for variant in (Variant.SELECTIVE, Variant.BASELINE_NOR):
        cfg = CamConfig(len(values), n, k)
        _assert_scan(new_array(cfg, variant, Store(values, n)), values, query, prev)
        rewritten = [*values[:addr], wv, *values[addr + 1:]]
        arr = new_array(cfg, variant, Store(rewritten, n))
        _assert_scan(arr, rewritten, query, prev)


# ---------------------------------------------------------------- records


# (config, store, keys, prev_key): a 4 x 6 store searched from power-up,
# and a planted 16 x 12 stream searched after a previous key.
_ONE_KEY_STREAMS = {
    "4x6": (
        CamConfig(4, 6, 2), Store([0b000011, 0b010101, 0b000011, 0b111000], 6),
        [3, 21, 56], None,
    ),
    "16x12": (
        CamConfig(16, 12, 3), gen_words(16, 12, 5),
        gen_queries(
            WorkloadSpec(WorkloadKind.PLANTED, 40, 5, match_rate=0.5),
            gen_words(16, 12, 5),
        ),
        0b101_010101010,
    ),
}


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("stream", _ONE_KEY_STREAMS)
def test_search_is_the_one_key_stream(variant, stream):
    # a search's record is the run of its one key after the key before it
    # (the stream's previous key for the first): entry i of the stream, the
    # same columns and energizers
    cfg, words, keys, prev_key = _ONE_KEY_STREAMS[stream]
    arr = new_array(cfg, variant, words)
    entries = one_key_runs(run_search_stream(arr, keys, prev_key))
    assert len(entries) == len(keys)
    for i, key in enumerate(keys):
        prev = keys[i - 1] if i else prev_key
        run = search(arr, key, prev)
        assert type(run) is SearchRun and len(run) == 1
        assert run == entries[i] == run_search_stream(arr, [key], prev)
        assert type(sum_event_totals(run)) is EventTotals


def test_record_reprs_are_pinned():
    # Recorded when both records were frozen dataclasses whose report repr
    # left out ``array``, re-recorded when ``energy_total`` left the report
    # (the energies live in the run's prices, ``energy.aggregate``), again
    # when the report came down to its matches and event totals, and again
    # when a search came to return its one-key run.
    cfg = CamConfig(4, 6, 2)
    words = Store([0b000011, 0b010101, 0b000011, 0b111000], 6)
    sel = search(new_array(cfg, Variant.SELECTIVE, words), 3, 56)
    base = search(new_array(cfg, Variant.BASELINE_NOR, words), 21)
    assert repr(sel) == (
        "SearchRun(energizers=4, matches=[(0, 2)], energized=[2],"
        " ml_en_transitions=[3], sl_toggles=[5])"
    )
    assert repr(base) == (
        "SearchRun(energizers=0, matches=[(1,)], energized=[4],"
        " ml_en_transitions=[0], sl_toggles=[6])"
    )
    assert sum_event_totals(sel) == EventTotals(3, 2, 0, 5, 4)
    assert sum_event_totals(base) == EventTotals(0, 4, 3, 6, 0)
    assert repr(EventTotals(1, 2, 3, 4, 5)) == (
        "EventTotals(ml_en_transitions=1, ml_precharges=2, ml_discharges=3,"
        " sl_toggles=4, mle_evaluations=5)"
    )

