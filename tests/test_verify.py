from dataclasses import replace
from itertools import product

import pytest

import camsim.array
import camsim.verify
from camsim import (
    CamConfig,
    InvalidConfig,
    Level,
    Store,
    Variant,
    gen_words,
    new_array,
    oracle_search,
    run_search_stream,
    search,
    verify_exhaustive,
    verify_randomized,
    word_traces,
)
from camsim.cli import main
from camsim.draws import Stream
from camsim.verify import _fault_run, _flipped_gate_matches
from cell_route import FIVE_BIT_STORE


def test_verify_randomized_rejects_negative_trials():
    with pytest.raises(InvalidConfig, match="trials"):
        verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), -5)


def test_verify_randomized_zero_trials_is_an_empty_pass():
    out = verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), 0)
    assert out.ok and out.cases == 0


REFERENCE = CamConfig(256, 144, 3, seed=1)


def test_randomized_tier_searches_both_variants_against_one_oracle_scan(monkeypatch):
    searched, scans = [], []

    def counted_stream(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        searched.extend([arr.variant] * len(run))
        return run

    def counted_oracle(values, key):
        scans.append(key)
        return oracle_search(values, key)

    monkeypatch.setattr(camsim.verify, "run_search_stream", counted_stream)
    monkeypatch.setattr(camsim.verify, "oracle_search", counted_oracle)
    out = verify_randomized(REFERENCE, 200, 1)
    assert out.ok and out.cases == 400
    assert searched.count(Variant.SELECTIVE) == searched.count(Variant.BASELINE_NOR) == 200
    # one scan per trial for both streams, and one more for each chunk's
    # first trial, which single search then checks on both variants
    chunks = -(-200 // camsim.verify.TRIALS_PER_CHUNK)
    assert len(scans) == 200 + chunks


def _per_trial_keys(seed, values, n, start, stop):
    """The trial keys drawn one trial at a time with ``unit``, ``bits`` and
    ``pick``: the style first, then the query bits or a pick, and a flip
    for a flipped copy."""
    styles = Stream(b"verify-style", seed)
    draws = Stream(b"verify-trial", seed)
    flips = Stream(b"verify-flip", seed)
    keys = []
    for i in range(start, stop):
        style = styles.unit(i)
        if style < 0.6:
            keys.append(draws.bits(i, n))
            continue
        base = values[draws.pick(i, len(values))]
        keys.append(base if style < 0.9 else base ^ (1 << (n - 1 - flips.pick(i, n))))
    return keys


@pytest.mark.parametrize("seed", [0, 1, 97])
@pytest.mark.parametrize("n", [3, 13, 144, 300])
def test_trial_keys_equal_the_per_trial_draws(monkeypatch, n, seed):
    # 300 bits takes bits_at's per-draw fallback. The ranges start and end
    # inside a chunk of TRIALS_PER_CHUNK trials, and the tier itself draws
    # chunk after chunk.
    chunk = camsim.verify.TRIALS_PER_CHUNK
    values = gen_words(7, n, seed)
    draws = camsim.verify._trial_draws(seed)
    for start, stop in ((0, 1), (5, chunk - 3), (chunk - 2, 3 * chunk + 11)):
        keys = camsim.verify._trial_keys(draws, values, n, start, stop)
        assert keys == _per_trial_keys(seed, values, n, start, stop)
    drawn = []
    check = camsim.verify._check_columns

    def recorded(store, keys, key_columns, engine, context, *rest):
        if engine is run_search_stream:
            drawn.extend(keys)
        return check(store, keys, key_columns, engine, context, *rest)

    monkeypatch.setattr(camsim.verify, "_check_columns", recorded)
    trials = 2 * chunk + 5
    assert verify_randomized(CamConfig(7, n, 2, seed=seed), trials, seed).ok
    assert drawn == _per_trial_keys(seed, values, n, 0, trials)
    # every style is drawn: uniform, copied and flipped trials
    units = [Stream(b"verify-style", seed).unit(i) for i in range(trials)]
    assert {(u >= 0.6) + (u >= 0.9) for u in units} == {0, 1, 2}


def test_randomized_tier_catches_a_baseline_only_fault(monkeypatch):
    # a mutant all-NOR array that loses its last match once the store
    # outgrows the exhaustive tier's 32 words: only the randomized tier
    # holds such a store, so only a baseline check there can catch it
    def dropping(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        if arr.variant is Variant.BASELINE_NOR and arr.config.num_words > 32:
            return replace(run, matches=[m[:-1] for m in run.matches])
        return run

    monkeypatch.setattr(camsim.verify, "run_search_stream", dropping)
    assert verify_exhaustive(1).ok
    out = verify_randomized(REFERENCE, 200, 1)
    ce = out.counterexample
    assert ce is not None and ce.context == "randomized baseline-nor"
    assert ce.expected == oracle_search(ce.words, ce.query) != ()
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
    assert ce.words == (3, 5, 3, 0) and ce.width == 4
    assert ce.query == 3
    assert ce.got == (0, 2) and ce.expected == (0,)


def test_stream_mutant_is_caught_on_the_duplicates_store(monkeypatch):
    # the exhaustive tier checks the stream that every verb runs: a stream
    # that loses the last address of a multi-hit result must show up as a
    # counterexample, first on the tier's only store with a repeated word
    def dropping(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        return replace(run, matches=[m[:-1] if len(m) > 1 else m for m in run.matches])

    monkeypatch.setattr(camsim.verify, "run_search_stream", dropping)
    out = verify_exhaustive(1)
    ce = out.counterexample
    assert ce is not None and ce.context == "n=4 k=2 selective store"
    assert ce.words == (3, 5, 3, 0) and ce.width == 4
    assert ce.query == 3
    assert ce.expected == (0, 2) and ce.got == (0,)
    # 16 single-word stores and two 16-word stores pass (576 cases), then
    # the gated stream fails at query 3: case 2 * 3 + 1
    assert out.cases == 576 + 7


def test_a_match_failure_comes_before_a_count_failure_at_one_query(monkeypatch):
    # a stream that loses a match and miscounts the same query reports the
    # match counterexample, byte for byte as a match-only mutant does
    def both(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        bad = [len(m) > 1 for m in run.matches]
        matches = [m[:-1] if b else m for m, b in zip(run.matches, bad)]
        energized = [e + b for e, b in zip(run.energized, bad)]
        return replace(run, matches=matches, energized=energized)

    monkeypatch.setattr(camsim.verify, "run_search_stream", both)
    out = verify_exhaustive(1)
    assert out.cases == 576 + 7
    assert out.counterexample.describe() == (
        "n=4 k=2 selective store: query 0011 against [0011, 0101, 0011, 0000]"
        " expected [0, 2], got [0]"
    )


def _per_query_reference(stores, matches_of):
    """(cases, context, query, expected, got) of the first failure that a
    loop over ``stores`` finds, query key by query key and gated before
    all-NOR, where ``matches_of(arr, key)`` gives the matches under test."""
    cases = 0
    for config, values, keys, context in stores:
        arrays = [new_array(config, variant, values) for variant in Variant]
        for key in keys:
            expected = oracle_search(values, key)
            for arr in arrays:
                cases += 1
                got = matches_of(arr, key)
                if got != expected:
                    return cases, context.format(arr.variant.value), key, expected, got


# variant -> the query values whose stream matches a mutant corrupts, on the
# 17-word stores only (the first is n=4 k=2, checked after 21 others), and
# the variant whose failure comes first query by query
STREAM_MUTANTS = {
    "gated-only": ({Variant.SELECTIVE: {9}}, Variant.SELECTIVE),
    "nor-only": ({Variant.BASELINE_NOR: {9}}, Variant.BASELINE_NOR),
    "both-at-one-query": (
        {Variant.SELECTIVE: {9}, Variant.BASELINE_NOR: {9}}, Variant.SELECTIVE
    ),
    "nor-at-an-earlier-query": (
        {Variant.SELECTIVE: {9}, Variant.BASELINE_NOR: {6}}, Variant.BASELINE_NOR
    ),
}


@pytest.mark.parametrize("mutant", STREAM_MUTANTS)
def test_stream_counterexample_is_the_per_query_loops_first(
    mutant, monkeypatch, exhaustive_tier
):
    # the exhaustive tier compares whole columns, but it reports what a
    # query-by-query loop reports: the first failing query, gated before
    # all-NOR, as case 2i + 1 or 2i + 2 after every earlier store's cases
    broken, first = STREAM_MUTANTS[mutant]

    def corrupt(arr, key, matches):
        if arr.config.num_words == 17 and key in broken.get(arr.variant, ()):
            return matches[:-1] if matches else (0,)
        return matches

    def mutant_stream(arr, keys, prev_key=None, *rest):
        keys = list(keys)
        run = run_search_stream(arr, keys, prev_key, *rest)
        matches = [corrupt(arr, key, m) for key, m in zip(keys, run.matches)]
        return replace(run, matches=matches)

    monkeypatch.setattr(camsim.verify, "run_search_stream", mutant_stream)
    out = verify_exhaustive(1)
    ce = out.counterexample
    assert ce is not None and ce.context == f"n=4 k=2 {first.value} store"
    want = _per_query_reference(
        exhaustive_tier.stores,
        lambda arr, key: corrupt(arr, key, oracle_search(arr.values, key)),
    )
    assert (out.cases, ce.context, ce.query, ce.expected, ce.got) == want


SOUND_GATE = camsim.array._gate_index


def _all_on_gate(monkeypatch):
    # the gated array energizes every line, whatever the search prefix
    def gate(values, shift, n):
        return (len(values),) * (1 << (n - shift))

    monkeypatch.setattr(camsim.array, "_gate_index", gate)


def _neighbour_gate(monkeypatch):
    # each search prefix also energizes the next prefix's bucket
    def gate(values, shift, n):
        runs = SOUND_GATE(values, shift, n)
        return tuple(r + runs[(b + 1) % len(runs)] for b, r in enumerate(runs))

    monkeypatch.setattr(camsim.array, "_gate_index", gate)


def _ml_en_off_by_one(monkeypatch):
    # every ML_EN transition count but 0 is one too many
    def stream(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        counts = [t + 1 if t else 0 for t in run.ml_en_transitions]
        return replace(run, ml_en_transitions=counts)

    monkeypatch.setattr(camsim.verify, "run_search_stream", stream)


def _energizer_short_by_one(monkeypatch):
    # the gated array evaluates one energizer fewer than it stores words,
    # while every energized count, match and transition stays right
    def stream(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        if arr.variant is Variant.SELECTIVE:
            return replace(run, energizers=run.energizers - 1)
        return run

    monkeypatch.setattr(camsim.verify, "run_search_stream", stream)


# mutant -> (install, the exhaustive tier's cases and counterexample, the
# column the randomized tier names at its first trial)
GATE_MUTANTS = {
    "all-on-gate": (
        _all_on_gate, 9,
        "n=4 k=2 selective single-word: query 0100 after 0011 against [0000]"
        " expected energized 0, got 1",
        "energized",
    ),
    "neighbour-bucket": (
        _neighbour_gate, 25,
        "n=4 k=2 selective single-word: query 1100 after 1011 against [0000]"
        " expected energized 0, got 1",
        "energized",
    ),
    "ml-en-off-by-one": (
        _ml_en_off_by_one, 1,
        "n=4 k=2 selective single-word: query 0000 against [0000]"
        " expected ml_en_transitions 1, got 2",
        "ml_en_transitions",
    ),
    "energizer-short-by-one": (
        _energizer_short_by_one, 1,
        "n=4 k=2 selective single-word: query 0000 against [0000]"
        " expected energizers 1, got 0",
        "energizers",
    ),
}


@pytest.mark.parametrize("mutant", GATE_MUTANTS)
def test_gate_mutant_is_caught_on_its_counts(mutant, monkeypatch, capsys):
    # matches are read by stored value, so each mutant keeps every match
    # right: only the count oracle can catch it, on both tiers and in the
    # CLI, and the counterexample names the count that failed
    install, cases, described, randomized_field = GATE_MUTANTS[mutant]
    install(monkeypatch)
    out = verify_exhaustive(1)
    assert out.cases == cases and out.counterexample.describe() == described
    out = verify_randomized(REFERENCE, 200, 1)
    ce = out.counterexample
    assert out.cases == 1 and ce.context == "randomized selective"
    assert ce.field == randomized_field and ce.prev_query is None
    assert ce.expected != ce.got
    assert f" expected {randomized_field} {ce.expected}, got {ce.got}" in ce.describe()
    assert main(["verify", "--trials", "200"]) == 1
    assert capsys.readouterr().err == f"counterexample: {described}\n"


# The randomized tier's chunk size, and a trial that starts a chunk at every
# size the test below checks (1, 3 and this one), in a later chunk than the
# first.
CHUNK = camsim.verify.TRIALS_PER_CHUNK
LATER_TRIAL = 3 * CHUNK


def _later_chunk_mutant(monkeypatch):
    # the gated array miscounts the searchline toggles of one search only:
    # trial LATER_TRIAL's, after trial LATER_TRIAL - 1, which the tier
    # threads from the chunk before
    searched = []

    def recording(arr, keys, prev_key=None, *rest):
        if arr.variant is Variant.SELECTIVE:
            searched.extend(keys)
        return run_search_stream(arr, keys, prev_key, *rest)

    monkeypatch.setattr(camsim.verify, "run_search_stream", recording)
    assert verify_randomized(REFERENCE, LATER_TRIAL + 1, 1).ok
    pair = searched[LATER_TRIAL - 1], searched[LATER_TRIAL]

    def miscounting(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        if arr.variant is not Variant.SELECTIVE:
            return run
        pairs = zip([prev_key, *keys], keys)
        toggles = [t + (p == pair) for t, p in zip(run.sl_toggles, pairs)]
        return replace(run, sl_toggles=toggles)

    monkeypatch.setattr(camsim.verify, "run_search_stream", miscounting)
    return pair


@pytest.mark.parametrize("build", ["sound", "fault", *GATE_MUTANTS, "later-chunk"])
def test_randomized_verdict_does_not_depend_on_the_chunk_size(build, monkeypatch):
    # the tier draws and checks its trials a chunk at a time, threading each
    # chunk after the last key of the one before: one trial per chunk, three,
    # or the real size all give the query-by-query loop's verdict
    assert LATER_TRIAL < 200
    pair = None
    if build in GATE_MUTANTS:
        GATE_MUTANTS[build][0](monkeypatch)
    elif build == "later-chunk":
        pair = _later_chunk_mutant(monkeypatch)
    verdicts = set()
    for size in (1, 3, CHUNK):
        monkeypatch.setattr(camsim.verify, "TRIALS_PER_CHUNK", size)
        out = verify_randomized(REFERENCE, 200, 1, fault=build == "fault")
        ce = out.counterexample
        verdicts.add((out.cases, ce and (ce.describe(), ce.field, ce.prev_query)))
    assert len(verdicts) == 1
    (cases, failure), = verdicts
    if build == "sound":
        assert (cases, failure) == (400, None)
    elif build == "later-chunk":
        assert cases == 2 * LATER_TRIAL + 1
        assert failure[1:] == ("sl_toggles", pair[0])
        assert failure[0].startswith("randomized selective: query ")
    else:
        assert failure is not None


@pytest.mark.parametrize("trials", [1, CHUNK, 200])
def test_randomized_tier_builds_one_value_index_per_call(
    monkeypatch, index_builds, trials
):
    # every chunk is one stream per variant; then single search searches
    # the chunk's first trial on each variant, after the chunk before's
    # last trial. Both variants' arrays share the call's one store, so
    # every stream and every single search reads its matches from the one
    # index built for the call.
    streams, searched = [], []

    def counted_stream(arr, keys, prev_key=None, *rest):
        keys = list(keys)
        streams.append((arr.variant, keys[0], prev_key))
        return run_search_stream(arr, keys, prev_key, *rest)

    def counted_search(arr, key, prev_key=None):
        searched.append((arr.variant, key, prev_key))
        return search(arr, key, prev_key)

    monkeypatch.setattr(camsim.verify, "run_search_stream", counted_stream)
    monkeypatch.setattr(camsim.verify, "search", counted_search)
    out = verify_randomized(REFERENCE, trials, 1)
    assert out.ok and out.cases == 2 * trials
    chunks = -(-trials // CHUNK)
    assert [v for v, _, _ in streams] == [Variant.SELECTIVE, Variant.BASELINE_NOR] * chunks
    assert searched == streams
    assert len(index_builds) == 1


def test_randomized_tier_catches_a_search_only_fault(monkeypatch, capsys):
    # every stream passes, but single search forgets its previous query:
    # the check of each chunk's first trial catches it at the second
    # chunk's, the first one searched after another
    def forgetful(arr, key, prev_key=None):
        return search(arr, key)

    monkeypatch.setattr(camsim.verify, "search", forgetful)
    exhaustive = verify_exhaustive(1)
    assert exhaustive.ok
    out = verify_randomized(REFERENCE, 200, 1)
    ce = out.counterexample
    assert out.cases == 2 * CHUNK + 1
    assert ce.context == "randomized selective search"
    assert ce.field == "ml_en_transitions" and ce.prev_query is not None
    assert ce.expected != ce.got
    assert main(["verify", "--trials", "200"]) == 1
    # the exhaustive tier's line, and no randomized or verdict line after it
    captured = capsys.readouterr()
    assert captured.out == f"exhaustive: {exhaustive.cases} cases checked\n"
    assert captured.err == f"counterexample: {ce.describe()}\n"


def test_a_failure_at_query_0_leaves_the_all_nor_array_unsearched(monkeypatch):
    # no failure can come before query 0, so once the gated run fails there
    # the column check makes no all-NOR engine call, not even one of no keys
    searched = []

    def stream(arr, keys, prev_key=None, *rest):
        searched.append((arr.variant, len(keys)))
        run = run_search_stream(arr, keys, prev_key, *rest)
        return replace(run, sl_toggles=[t + 1 for t in run.sl_toggles])

    monkeypatch.setattr(camsim.verify, "run_search_stream", stream)
    out = verify_exhaustive(1)
    assert out.cases == 1 and out.counterexample.field == "sl_toggles"
    assert searched == [(Variant.SELECTIVE, 16)]
    searched.clear()
    out = verify_randomized(REFERENCE, 200, 1)
    assert out.cases == 1 and out.counterexample.field == "sl_toggles"
    assert searched == [(Variant.SELECTIVE, CHUNK)]


def test_fault_injection_checks_matches_only(monkeypatch):
    # the inverted-gate mutant's counts are the sound stream's: a count
    # mutant on top of it leaves its first counterexample as it is
    _all_on_gate(monkeypatch)
    out = verify_exhaustive(1, fault=True)
    assert out.cases == 1 and out.counterexample.field == "matches"


def test_flipped_gate_mutant_matches_the_cell_level_route():
    # every variant, every query: the mutant reports exactly the words whose
    # traced ML_EN level, inverted behind an energizer, is high and whose
    # NOR-compared bits (the suffix, or the whole baseline word) equal the
    # query's; without an energizer that is the sound stream. Every count
    # of its run is the sound stream's, so only its matches can fail.
    n = 5
    for k, variant in product((2, 3), Variant):
        arr = new_array(CamConfig(len(FIVE_BIT_STORE), n, k), variant, FIVE_BIT_STORE)
        gated = variant is Variant.SELECTIVE
        compared = (1 << (n - k if gated else n)) - 1
        keys = list(range(1 << n))
        got = _fault_run(arr, keys, None)
        assert got == replace(run_search_stream(arr, keys), matches=got.matches)
        for query, matches in zip(keys, got.matches):
            assert matches == tuple(
                t.addr
                for t, word in zip(word_traces(arr, query), FIVE_BIT_STORE)
                if (t.ml_en is Level.HIGH) != gated
                and (word ^ query) & compared == 0
            )


def test_fault_injection_breaks_oracle_agreement():
    cfg = CamConfig(4, 8, 3)
    words = Store(
        [int(text, 2) for text in ("10110011", "00110011", "11111111", "00000000")], 8
    )
    key = words[0]
    got = _flipped_gate_matches(new_array(cfg, Variant.SELECTIVE, words), key)
    assert got != oracle_search(words, key)
    # the flipped gate energizes addresses 1, 2 and 3, and only address 1's
    # suffix matches on its NOR chain
    assert got == (1,)
