"""Oracle-equivalence harness: the search engine against a linear scan for
the matches and a count oracle for the gate.

Two tiers check ``run_search_stream``, the one engine that every verb (and
single ``search``) runs, through one run checker (``_check_columns``)
against one expected run (``_expected_run``: the oracle scan's matches and
the count oracle's columns). Every engine (the sound stream, single
``search`` and the fault mutant) is a function (array, keys, previous key)
-> ``SearchRun``, so a search has one record throughout. The exhaustive
tier walks small geometries through every query against structured and
seeded stores (all single-word pairs, full tables, shared-prefix stores,
duplicates): one stream per store and variant over the whole query
universe. The randomized tier hammers the full 256 x 144 geometry with a
mix of uniform queries, planted copies, and near-miss single-bit
corruptions, which is where a wrong prefix gate or suffix scan actually
shows up. It draws its
trials as int keys, ``TRIALS_PER_CHUNK`` at a time, and streams each chunk
on both variants after the last key of the chunk before. A store's
all-NOR array is its gated array with the variant replaced (``_store``),
so both hold one ``array.Store``, and every stream and single ``search``
of the store reads its matches from one dict of addresses, built once per
store. Both tiers check every query on the gated and on the all-NOR array
of a store against one oracle scan, so a ``VerifyOutcome.cases`` counts
two searches per query, and either tier
reports its first failure in the same order: query by query, gated before
all-NOR. The randomized tier also checks ``search``, the public one-key
entry point, on the first trial of each chunk once the chunk's streams
pass: its width checks and its previous query are code of its own that
no stream runs. The oracle scans the store's values
as plain ints, read from its words once per store; widths are checked
before a scan or a stream, not inside it. Arrays keep their store as ints,
so the randomized tier holds no ``BitWord`` of its store once its arrays
are built. It builds one for a query only for single ``search`` or a
counterexample, and the store's only for a counterexample.

The engine reads matches by stored value, so a wrong gate would still give
the right matches; the count oracle checks the gate. It takes occ(p), the
number of stored words with prefix p, from the words (no gate fact of the
array), and derives each search's counts: on the gated array occ(p) lines
energize, and ML_EN switches on occ(p) + occ(p') lines when the prefix
changes from p' (occ(p) on the first search, none when it repeats); on the
all-NOR array all N lines energize and ML_EN never switches. Searchline
toggles are popcount(q XOR q'), n on the first search. Both tiers compare,
in this order (``SearchRun.COLUMNS``), the run's ``matches``,
``energized``, ``ml_en_transitions`` and ``sl_toggles`` columns, and then
its ``energizers``: N energizer evaluations per query on the gated array,
none on the all-NOR one. The discharges are not a column of their own: a
run's are its energized lines less its matches by construction, so
checking those two checks them, and every ``EventTotals`` field of every
search is checked. A search fails on its matches first; a count failure
names its column.

With ``fault`` set, the harness checks a mutant instead of the sound build:
one whose energizer inverts every decision, so it must report a
counterexample. Its run is the sound stream's with the gated array's
matches replaced by the mutant's, query by query; the all-NOR array has
no energizer to invert, so its run is the sound one. Its counts are the
sound stream's, so a failure can only come from its matches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice
from operator import add, mul, ne, xor
from typing import Callable, Optional, Sequence, Union

from .array import (
    CamArray,
    SearchRun,
    Variant,
    _check_keys,
    new_array,
    oracle_search,
    run_search_stream,
    search,
)
from .core import BitWord, CamConfig
from .draws import Stream
from .errors import InvalidConfig

_TAG_STORE = b"verify-store"
_TAG_TRIAL = b"verify-trial"
_TAG_STYLE = b"verify-style"
_TAG_FLIP = b"verify-flip"


@dataclass(frozen=True)
class Counterexample:
    """A failing search. ``field`` names what failed: ``"matches"``, with
    address tuples in ``expected`` and ``got``, or a count, with two ints.
    A count also depends on ``prev_query``, the search before this one
    (None for the first search)."""

    words: tuple[BitWord, ...]
    query: BitWord
    expected: Union[tuple[int, ...], int]
    got: Union[tuple[int, ...], int]
    context: str
    field: str = "matches"
    prev_query: Optional[BitWord] = None

    def describe(self) -> str:
        stored = ", ".join(w.to_text() for w in self.words)
        query = self.query.to_text()
        if self.field == "matches":
            expected, got = list(self.expected), list(self.got)
        else:
            expected, got = f"{self.field} {self.expected}", self.got
            if self.prev_query is not None:
                query += f" after {self.prev_query.to_text()}"
        return (
            f"{self.context}: query {query} against [{stored}] "
            f"expected {expected}, got {got}"
        )


@dataclass(frozen=True)
class VerifyOutcome:
    cases: int
    counterexample: Optional[Counterexample]

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _flipped_gate_matches(arr: CamArray, key: int) -> tuple[int, ...]:
    """The matches of the gated ``arr`` built with every energizer decision
    inverted, read from its stored values: the words whose suffix equals
    ``key``'s and whose prefix differs (with equal suffixes, the words not
    equal to ``key``)."""
    values = arr.values
    suffix = (1 << (arr.config.word_bits - arr.config.mle_bits)) - 1
    return tuple([
        addr for addr, v in enumerate(values) if v != key and not (v ^ key) & suffix
    ])


def _store(config: CamConfig, words: Sequence[BitWord]) -> tuple[list, list, list]:
    """A store to check: its gated and its all-NOR array (``new_array``
    rejects a word of the wrong width), which share one ``array.Store``,
    its values as the oracle scans them, read from the words and not from
    an array, and occ, where occ[p] is how many of them store the k-bit
    prefix p. Only the arrays' ints outlive the call, not the words."""
    gated = new_array(config, Variant.SELECTIVE, words)
    arrays = [gated, replace(gated, variant=Variant.BASELINE_NOR)]
    values = [w.value for w in words]
    occ = [0] * (1 << config.mle_bits)
    shift = config.word_bits - config.mle_bits
    for v in values:
        occ[v >> shift] += 1
    return arrays, values, occ


def _key_columns(
    keys: Sequence[int], n: int, k: int, prev_key: Optional[int] = None
) -> tuple[list, list, list, Optional[int]]:
    """The count oracle's columns that depend on the keys alone, searched in
    order after ``prev_key`` (None: after no query): each key's prefix,
    whether it differs from the previous key's (True for the first after
    none), the searchline toggles (n for the first after none), and
    ``prev_key``'s prefix."""
    prefixes = [key >> (n - k) for key in keys]
    before = None if prev_key is None else prev_key >> (n - k)
    changed = [*map(ne, prefixes, chain((before,), prefixes))]
    first = n if prev_key is None else (keys[0] ^ prev_key).bit_count()
    toggles = [first, *map(int.bit_count, map(xor, islice(keys, 1, None), keys))]
    return prefixes, changed, toggles, before


def _expected_run(
    matches: list, occ: Sequence[int], size: int, gated: bool, key_columns: tuple
) -> SearchRun:
    """The run ``run_search_stream`` must give for the keys of
    ``key_columns`` on the gated or the all-NOR array of ``size`` words with
    occupancy ``occ``: the oracle scan's ``matches``, and the count oracle's
    columns by the rule in the module docstring."""
    prefixes, changed, toggles, before = key_columns
    queries = len(prefixes)
    if not gated:
        return SearchRun(0, matches, [size] * queries, [0] * queries, toggles)
    energized = [*map(occ.__getitem__, prefixes)]
    first = 0 if before is None else occ[before]
    ml_en = [*map(mul, changed, map(add, energized, chain((first,), energized)))]
    return SearchRun(size, matches, energized, ml_en, toggles)


# The engines: each searches ``keys`` on ``arr`` in order, the first after
# ``prev_key``, and returns the run. The sound one is ``run_search_stream``.


def _search_run(
    arr: CamArray, keys: Sequence[int], prev_key: Optional[int]
) -> SearchRun:
    """Single ``search`` of the one key in ``keys``."""
    (key,) = keys
    n = arr.config.word_bits
    prev = None if prev_key is None else BitWord(n, prev_key)
    return search(arr, BitWord(n, key), prev)


def _fault_run(
    arr: CamArray, keys: Sequence[int], prev_key: Optional[int]
) -> SearchRun:
    """The fault mutant's run: the sound stream's, with the matches of the
    gated array's inverted energizer. The all-NOR array has no energizer to
    invert, so its run is the sound one."""
    run = run_search_stream(arr, keys, prev_key)
    if arr.variant is Variant.BASELINE_NOR:
        return run
    return replace(run, matches=[_flipped_gate_matches(arr, key) for key in keys])


def _first_mismatch(got: SearchRun, expected: SearchRun) -> Optional[tuple]:
    """The first failure of the run ``got`` against the ``expected`` run,
    whose keys may run on past ``got``'s, as (index, field, expected entry,
    got entry), or None if they pass. At one index the first failing field
    in ``SearchRun.COLUMNS`` order is named, then ``energizers``, one int for
    every query, which fails at query 0."""
    first = None
    for name in SearchRun.COLUMNS:
        column, want = getattr(got, name), getattr(expected, name)
        if column == want:  # a C-level pass for the common case
            continue
        i = next(compress(count(), map(ne, column, want)), None)
        if i is not None and (first is None or i < first[0]):
            first = i, name, want[i], column[i]
    if got.energizers != expected.energizers and (first is None or first[0]):
        first = 0, "energizers", expected.energizers, got.energizers
    return first


def _check_columns(
    store: tuple[list, list, list],
    keys: Sequence[int],
    key_columns: tuple,
    engine: Callable[..., SearchRun],
    context: str,
    prev_key: Optional[int] = None,
) -> VerifyOutcome:
    """Search the query ``keys``, after ``prev_key``, with ``engine`` on the
    gated array of ``store`` (``_store``'s), then on its all-NOR array, and
    compare each run whole with the expected run: one oracle scan of the
    stored values per key, and the count oracle. Every key is checked
    to be an n-bit value before the first scan, so the oracle compares
    plain ints. ``key_columns`` is ``_key_columns`` of the keys after
    ``prev_key``, which the exhaustive tier computes once for every store
    it checks. The verdict is the one a query-major loop gives: a failure
    of the j-th variant at query i is case 2i + j + 1, so the all-NOR array
    is searched only up to the gated array's first failure (not at all for
    a failure at query 0), and only one engine's run is alive at a time.
    ``context`` is a format string whose one field takes the variant of a
    failing search; the store's words are rebuilt only for a
    counterexample."""
    arrays, values, occ = store
    n = arrays[0].config.word_bits
    _check_keys(keys, n)
    matches = [oracle_search(values, key) for key in keys]
    failure, end = None, len(keys)
    for j, arr in enumerate(arrays):
        if not end:  # no failure can come before query 0
            break
        gated = arr.variant is Variant.SELECTIVE
        expected = _expected_run(matches, occ, len(values), gated, key_columns)
        found = _first_mismatch(engine(arr, keys[:end], prev_key), expected)
        if found is not None:
            failure, end = (j, arr, *found), found[0]
    if failure is None:
        return VerifyOutcome(2 * len(keys), None)
    j, arr, i, field, want, got = failure
    ctx = context.format(arr.variant.value)
    before = keys[i - 1] if i else prev_key
    prev = None if field == "matches" or before is None else BitWord(n, before)
    words = tuple([BitWord(n, v) for v in values])
    ce = Counterexample(words, BitWord(n, keys[i]), want, got, ctx, field, prev)
    return VerifyOutcome(2 * i + j + 1, ce)


def verify_exhaustive(seed: int = 0, fault: bool = False) -> VerifyOutcome:
    """Small-geometry sweep: n = 4..6, k = 2..3, stores up to 32 words,
    every possible query against every store, streamed through both
    variants. The count oracle's key columns are computed once per (n, k)
    and shared by every store."""
    engine = _fault_run if fault else run_search_stream
    total = 0
    store_draws = Stream(_TAG_STORE, seed)
    for n in (4, 5, 6):
        keys = list(range(1 << n))
        universe = [BitWord(n, v) for v in keys]
        for k in (2, 3):
            key_columns = _key_columns(keys, n, k)
            # every (stored word, query) pair at N=1
            stores = [("single-word", [w]) for w in universe]
            stores += [
                # full table (capped at 32 words), all queries hit something
                ("store", universe[:32]),
                # every word shares the same k-bit prefix; worst case gating
                ("store", [w for w in universe if w.prefix_int(k) == 1][:8]),
                # duplicates must both report
                ("store", [universe[3], universe[5], universe[3], universe[0]]),
            ]
            # seeded random stores of assorted sizes
            for j, size in enumerate((5, 17, 32)):
                base = n * 1000 + k * 100 + j * 10
                values = store_draws.bits_column(size, n, start=base)
                stores.append(("store", [BitWord(n, v) for v in values]))
            for kind, words in stores:
                store = _store(CamConfig(len(words), n, k, seed=seed), words)
                ctx = f"n={n} k={k} {{}} {kind}"
                out = _check_columns(store, keys, key_columns, engine, ctx)
                total += out.cases
                if not out.ok:
                    return VerifyOutcome(total, out.counterexample)
    return VerifyOutcome(total, None)


# Trials the randomized tier draws and checks at a time: the most of them
# whose keys and columns it holds. Measured at 256 x 144 (CHANGES.md): with
# 16 to 64 the traced peak of ``camsim verify --trials 200`` stays where the
# exhaustive tier sets it, one chunk of all 200 raises it by about 60%, and
# chunks of 1 make 20,000 trials about twice as slow.
TRIALS_PER_CHUNK = 32


def verify_randomized(
    config: CamConfig,
    trials: int,
    seed: int = 0,
    fault: bool = False,
) -> VerifyOutcome:
    """Randomized trials at full geometry, each one search on both variants,
    so ``cases`` is 2 x ``trials`` when every search passes. Each trial
    draws its query key from (seed, trial index): 60% uniform, 30% an exact
    copy of a stored word, 10% a stored word with one flipped bit. The
    trials are drawn and checked ``TRIALS_PER_CHUNK`` at a time, each chunk
    streamed after the last key of the one before. Every stream and single
    ``search`` reads its matches from the store's one dict of addresses,
    built once per call. Once
    a chunk's streams pass, its first trial is searched again with
    ``search`` on both variants, after the same previous key, and checked
    against the same oracles; a failure there is that trial's case, in the
    context ``randomized <variant> search``. So the verdict does not depend
    on the chunk size, except where only ``search`` fails."""
    from .workload import gen_words

    if trials < 0:
        raise InvalidConfig(f"trials must be >= 0, got {trials}")
    n, k = config.word_bits, config.mle_bits
    store = _store(config, gen_words(config.num_words, n, config.seed))
    values = store[1]
    styles, trial_draws, flips = (
        Stream(tag, seed) for tag in (_TAG_STYLE, _TAG_TRIAL, _TAG_FLIP)
    )

    def trial(i: int) -> int:
        style = styles.unit(i)
        if style < 0.6:
            return trial_draws.bits(i, n)
        base = values[trial_draws.pick(i, len(values))]
        if style < 0.9:
            return base
        return base ^ (1 << (n - 1 - flips.pick(i, n)))

    engine = _fault_run if fault else run_search_stream
    total, prev_key = 0, None
    for start in range(0, trials, TRIALS_PER_CHUNK):
        keys = [trial(i) for i in range(start, min(start + TRIALS_PER_CHUNK, trials))]
        key_columns = _key_columns(keys, n, k, prev_key)
        out = _check_columns(
            store, keys, key_columns, engine, "randomized {}", prev_key
        )
        if out.ok:
            first = keys[:1]
            single = _check_columns(
                store, first, _key_columns(first, n, k, prev_key),
                _search_run, "randomized {} search", prev_key,
            )
            if not single.ok:
                return VerifyOutcome(total + single.cases, single.counterexample)
        total += out.cases
        if not out.ok:
            return VerifyOutcome(total, out.counterexample)
        prev_key = keys[-1]
    return VerifyOutcome(total, None)
