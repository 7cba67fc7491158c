"""Oracle-equivalence harness: both search engines against a linear scan
for the matches and a count oracle for the gate.

Two tiers, one per engine. The exhaustive tier walks small geometries
through every query against structured and seeded stores (all single-word
pairs, full tables, shared-prefix stores, duplicates), and checks
``run_search_stream``, the column-at-a-time engine that the search, sweep
and compare verbs run: one stream per store and variant over the whole
query universe. The randomized tier hammers the full 256 x 144 geometry
with a mix of uniform queries, planted copies, and near-miss single-bit
corruptions, which is where a wrong prefix gate or suffix scan actually
shows up, and checks single ``search`` lazily, query by query, threaded.
Both tiers check every query on the gated and on the all-NOR array of a
store against one oracle scan, so a ``VerifyOutcome.cases`` counts two
searches per query, and either tier reports its first failure in the same
order: query by query, gated before all-NOR. The oracle scans the store's
values as plain ints, listed once per store; widths are checked before a
scan or a stream, not inside it. The exhaustive tier's queries are int
keys, one list per width; a ``BitWord`` is built only for a counterexample.

The engines read matches by stored value, so a wrong gate would still give
the right matches; the count oracle checks the gate. It takes occ(p), the
number of stored words with prefix p, from the words (no gate fact of the
array), and derives each search's counts: on the gated array occ(p) lines
energize, and ML_EN switches on occ(p) + occ(p') lines when the prefix
changes from p' (occ(p) on the first search, none when it repeats); on the
all-NOR array all N lines energize and ML_EN never switches. Searchline
toggles are popcount(q XOR q'), n on the first search. The exhaustive tier
compares the stream's ``energized``, ``ml_en_transitions`` and
``sl_toggles`` columns, the randomized tier each search's ``EventTotals``.
A search fails on its matches first; a count failure names its field.

With ``fault`` set, the harness checks a mutant instead of the sound build:
one whose energizer inverts every decision, so it must report a
counterexample. Both tiers take the mutant's matches query by query and
check matches only, as the mutant has no counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import add, mul, ne, xor
from typing import Iterable, Optional, Sequence, Union

from .array import (
    CamArray,
    EventTotals,
    Variant,
    _check_keys,
    new_array,
    oracle_search,
    run_search_stream,
    search,
)
from .core import BitWord, CamConfig
from .draws import Stream
from .errors import InvalidConfig, WidthMismatch

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
    """The matches of ``arr`` built with every energizer decision inverted,
    read from its stored values: on the gated array, the words whose suffix
    equals ``key``'s and whose prefix differs (with equal suffixes, the
    words not equal to ``key``); on the baseline, which has no energizer to
    invert, the words equal to ``key``."""
    values = arr._values
    if arr.variant is Variant.BASELINE_NOR:
        return tuple([addr for addr, v in enumerate(values) if v == key])
    suffix = (1 << (arr.config.word_bits - arr.config.mle_bits)) - 1
    return tuple([
        addr for addr, v in enumerate(values) if v != key and not (v ^ key) & suffix
    ])


def _occupancy(words: Sequence[BitWord], k: int) -> list[int]:
    """occ, where occ[p] is how many of ``words`` store the k-bit prefix p.
    Read from the words, not from an array's gate."""
    occ = [0] * (1 << k)
    for w in words:
        occ[w.prefix_int(k)] += 1
    return occ


def _key_columns(keys: Sequence[int], n: int, k: int) -> tuple[list, list, list]:
    """The count oracle's columns that depend on the keys alone, searched in
    order after no previous query: each key's prefix, whether it differs
    from the previous key's (True for the first), and the searchline
    toggles (n for the first)."""
    prefixes = [key >> (n - k) for key in keys]
    changed = [True, *map(ne, islice(prefixes, 1, None), prefixes)]
    toggles = [n, *map(int.bit_count, map(xor, islice(keys, 1, None), keys))]
    return prefixes, changed, toggles


def _count_columns(
    occ: Sequence[int], size: int, gated: bool, key_columns: tuple
) -> dict[str, list[int]]:
    """The count oracle for a stream: the count columns ``run_search_stream``
    must give for the keys of ``key_columns`` on the gated or the all-NOR
    array of ``size`` words with occupancy ``occ``, by the rule in the
    module docstring."""
    prefixes, changed, toggles = key_columns
    if not gated:
        energized, ml_en = [size] * len(prefixes), [0] * len(prefixes)
    else:
        energized = [*map(occ.__getitem__, prefixes)]
        ml_en = [*map(mul, changed, map(add, energized, chain((0,), energized)))]
    return {"energized": energized, "ml_en_transitions": ml_en, "sl_toggles": toggles}


def _first_mismatch(
    arr: CamArray, keys: Sequence[int], expected: dict[str, Sequence], fault: bool
) -> Optional[tuple[int, str, object, object]]:
    """The first failure of ``arr``'s stream of the query ``keys`` against
    the ``expected`` columns, as (index, field, expected entry, got entry),
    or None if the stream passes. At one index the first failing field in
    ``expected``'s order is named, so a match failure comes before a count
    failure; the fault mutant has a match column only. The run lives only
    in this call, so a store's check holds at most one variant's run at a
    time."""
    if fault:
        got = {"matches": [_flipped_gate_matches(arr, key) for key in keys]}
    else:
        run = run_search_stream(arr, keys)
        got = {name: getattr(run, name) for name in expected}
    first = None
    for name, column in got.items():
        want = expected[name]
        if column == want:  # a C-level pass for the common case
            continue
        i = next(compress(count(), map(ne, column, want)), None)
        if i is not None and (first is None or i < first[0]):
            first = i, name, want[i], column[i]
    return first


def _check_columns(
    config: CamConfig,
    words: Sequence[BitWord],
    keys: Sequence[int],
    fault: bool,
    context: str,
    key_columns: tuple,
) -> VerifyOutcome:
    """Stream every query key through the store's gated array, then through
    its all-NOR array, and compare each match column with one oracle scan of
    the stored values per key, and each count column with the count oracle.
    ``new_array`` rejects a stored word of the wrong width and every key is
    checked to be an n-bit value before the first scan, so the oracle
    compares plain ints. ``key_columns`` is ``_key_columns`` of the keys,
    which the caller computes once for every store it checks. The verdict
    is the one a query-major loop gives: a failure of the j-th variant at
    query i is case 2i + j + 1, so the all-NOR stream is checked only up to
    the gated stream's first failure. ``context`` is a format string whose
    one field takes the variant of a failing search."""
    words = tuple(words)
    arrays = [new_array(config, variant, words) for variant in Variant]
    n, k = config.word_bits, config.mle_bits
    _check_keys(keys, n)
    values = [w.value for w in words]
    matches = [oracle_search(values, key) for key in keys]
    occ = _occupancy(words, k)
    failure, end = None, len(keys)
    for j, arr in enumerate(arrays):
        gated = arr.variant is Variant.SELECTIVE
        counts = _count_columns(occ, len(words), gated, key_columns)
        expected = {"matches": matches, **counts}
        found = _first_mismatch(arr, keys[:end], expected, fault)
        if found is not None:
            failure, end = (j, arr, *found), found[0]
    if failure is None:
        return VerifyOutcome(2 * len(keys), None)
    j, arr, i, field, want, got = failure
    ctx = context.format(arr.variant.value)
    query = BitWord(n, keys[i])
    prev = BitWord(n, keys[i - 1]) if i and field != "matches" else None
    ce = Counterexample(words, query, want, got, ctx, field, prev)
    return VerifyOutcome(2 * i + j + 1, ce)


def _expected_totals(
    occ: Sequence[int], size: int, n: int, k: int,
    key: int, prev_key: Optional[int], hits: int,
) -> tuple[EventTotals, EventTotals]:
    """The count oracle for one search of ``key`` after ``prev_key`` (None
    for the first) with ``hits`` matches: its ``EventTotals`` on the gated
    and on the all-NOR array of ``size`` words with occupancy ``occ``. The
    rule of ``_count_columns``, taken one query at a time, as the randomized
    tier draws its queries."""
    p = key >> (n - k)
    if prev_key is None:
        ml_en, toggles = occ[p], n
    else:
        pp = prev_key >> (n - k)
        ml_en = 0 if p == pp else occ[p] + occ[pp]
        toggles = (key ^ prev_key).bit_count()
    return (
        EventTotals(ml_en, occ[p], occ[p] - hits, toggles, size),
        EventTotals(0, size, size - hits, toggles, 0),
    )


def _search_failure(
    arr: CamArray, query: BitWord, prev: Optional[BitWord],
    matches: tuple[int, ...], totals: EventTotals, fault: bool,
) -> Optional[tuple[str, object, object]]:
    """(field, expected, got) for the first field in which ``arr``'s search
    of ``query`` after ``prev`` fails: its matches against ``matches``, then
    each ``EventTotals`` field against ``totals``; None if it passes. The
    fault mutant is checked on its matches only."""
    if fault:
        got = _flipped_gate_matches(arr, query.value)
        return None if got == matches else ("matches", matches, got)
    report = search(arr, query, prev)
    if report.matches != matches:
        return "matches", matches, report.matches
    for field, expected, got in zip(EventTotals._fields, totals, report.event_totals):
        if expected != got:
            return field, expected, got
    return None


def _check_searches(
    config: CamConfig,
    words: Sequence[BitWord],
    queries: Iterable[BitWord],
    fault: bool,
    context: str,
) -> VerifyOutcome:
    """Search each query on the store's gated array, then on its all-NOR
    array, threaded after the query before it, and compare both with one
    oracle scan of the stored values and with the count oracle; stop at the
    first failure. Queries are drawn and checked one at a time, so no column
    of them is held. Each query's width is checked before it is scanned, so
    the oracle compares plain ints, and ``context`` is used as in
    ``_check_columns``."""
    words = tuple(words)
    arrays = [new_array(config, variant, words) for variant in Variant]
    values = [w.value for w in words]
    n, k = config.word_bits, config.mle_bits
    occ, size = _occupancy(words, k), len(words)
    cases = 0
    prev = None
    for q in queries:
        if q.width != n:
            raise WidthMismatch(f"query width {q.width} != word_bits {n}")
        key = q.value
        expected = oracle_search(values, key)
        prev_key = None if prev is None else prev.value
        totals = _expected_totals(occ, size, n, k, key, prev_key, len(expected))
        for arr, arr_totals in zip(arrays, totals):
            cases += 1
            failure = _search_failure(arr, q, prev, expected, arr_totals, fault)
            if failure is not None:
                field, want, got = failure
                ctx = context.format(arr.variant.value)
                before = None if field == "matches" else prev
                ce = Counterexample(words, q, want, got, ctx, field, before)
                return VerifyOutcome(cases, ce)
        prev = q
    return VerifyOutcome(cases, None)


def verify_exhaustive(seed: int = 0, fault: bool = False) -> VerifyOutcome:
    """Small-geometry sweep: n = 4..6, k = 2..3, stores up to 32 words,
    every possible query against every store, streamed through both
    variants. The count oracle's key columns are computed once per (n, k)
    and shared by every store."""
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
                cfg = CamConfig(len(words), n, k, seed=seed)
                ctx = f"n={n} k={k} {{}} {kind}"
                out = _check_columns(cfg, words, keys, fault, ctx, key_columns)
                total += out.cases
                if not out.ok:
                    return VerifyOutcome(total, out.counterexample)
    return VerifyOutcome(total, None)


def verify_randomized(
    config: CamConfig,
    trials: int,
    seed: int = 0,
    fault: bool = False,
) -> VerifyOutcome:
    """Randomized trials at full geometry, each one a single ``search`` on
    both variants, so ``cases`` is 2 x ``trials`` when every search passes.
    Each trial draws its query from (seed, trial index): 60% uniform, 30% an
    exact copy of a stored word, 10% a stored word with one flipped bit."""
    from .workload import gen_words

    if trials < 0:
        raise InvalidConfig(f"trials must be >= 0, got {trials}")
    # One copy of the store: _check_searches keeps a tuple as it is.
    words = tuple(gen_words(config.num_words, config.word_bits, config.seed))
    n = config.word_bits
    styles, trial_draws, flips = (
        Stream(tag, seed) for tag in (_TAG_STYLE, _TAG_TRIAL, _TAG_FLIP)
    )

    def trial(i: int) -> BitWord:
        style = styles.unit(i)
        if style < 0.6:
            return BitWord(n, trial_draws.bits(i, n))
        base = words[trial_draws.pick(i, len(words))]
        if style < 0.9:
            return base
        pos = flips.pick(i, n)
        return BitWord(n, base.value ^ (1 << (n - 1 - pos)))

    queries = (trial(i) for i in range(trials))
    return _check_searches(config, words, queries, fault, "randomized {}")
