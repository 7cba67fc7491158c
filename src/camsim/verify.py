"""Oracle-equivalence harness: both search engines against a linear scan.

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

With ``fault`` set, the harness checks a mutant instead of the sound build:
one whose energizer inverts every decision, so it must report a
counterexample. Both tiers take the mutant's matches query by query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterable, Optional, Sequence

from .array import (
    CamArray,
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
    words: tuple[BitWord, ...]
    query: BitWord
    expected: tuple[int, ...]
    got: tuple[int, ...]
    context: str

    def describe(self) -> str:
        stored = ", ".join(w.to_text() for w in self.words)
        return (
            f"{self.context}: query {self.query.to_text()} against "
            f"[{stored}] expected {list(self.expected)}, got {list(self.got)}"
        )


@dataclass(frozen=True)
class VerifyOutcome:
    cases: int
    counterexample: Optional[Counterexample]

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _flipped_gate_matches(arr: CamArray, key: int) -> tuple[int, ...]:
    """The matches of ``arr`` built with every energizer decision inverted:
    the words whose stored prefix differs from ``key``'s and whose suffix
    equals ``key``'s. The baseline has no energizer to invert."""
    n, k = arr.config.word_bits, arr.config.mle_bits
    if arr.variant is Variant.BASELINE_NOR:
        return search(arr, BitWord(n, key)).matches
    shift = n - k
    suffix = key & ((1 << shift) - 1)
    matches: list[int] = []
    for p in range(1 << k):
        if p != key >> shift:
            matches += search(arr, BitWord(n, p << shift | suffix)).matches
    return tuple(sorted(matches))


def _first_mismatch(
    arr: CamArray,
    keys: Sequence[int],
    expected: Sequence[tuple[int, ...]],
    fault: bool,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The first index at which ``arr``'s match column for the query
    ``keys`` differs from ``expected``, and the column's entry there; None
    if the column passes. The column lives only in this call, so a store's
    check holds at most one variant's column at a time."""
    if fault:
        column = [_flipped_gate_matches(arr, key) for key in keys]
    else:
        column = run_search_stream(arr, keys).matches
    for i in compress(count(), map(ne, column, expected)):
        return i, column[i]
    return None


def _check_columns(
    config: CamConfig,
    words: Sequence[BitWord],
    keys: Sequence[int],
    fault: bool,
    context: str,
) -> VerifyOutcome:
    """Stream every query key through the store's gated array, then through
    its all-NOR array, and compare each match column with one oracle scan of
    the stored values per key. ``new_array`` rejects a stored word of the
    wrong width and every key is checked to be an n-bit value before the
    first scan, so the oracle compares plain ints. The verdict is the one a
    query-major loop gives: a failure of the j-th variant at query i is case
    2i + j + 1, so the all-NOR column is checked only up to the gated
    column's first failure. ``context`` is a format string whose one field
    takes the variant of a failing search."""
    words = tuple(words)
    arrays = [new_array(config, variant, words) for variant in Variant]
    n = config.word_bits
    _check_keys(keys, n)
    values = [w.value for w in words]
    expected = [oracle_search(values, key) for key in keys]
    failure, end = None, len(keys)
    for j, arr in enumerate(arrays):
        found = _first_mismatch(arr, keys[:end], expected, fault)
        if found is not None:
            failure, end = (j, arr, *found), found[0]
    if failure is None:
        return VerifyOutcome(2 * len(keys), None)
    j, arr, i, got = failure
    ctx = context.format(arr.variant.value)
    query = BitWord(n, keys[i])
    return VerifyOutcome(2 * i + j + 1, Counterexample(words, query, expected[i], got, ctx))


def _check_searches(
    config: CamConfig,
    words: Sequence[BitWord],
    queries: Iterable[BitWord],
    fault: bool,
    context: str,
) -> VerifyOutcome:
    """Search each query on the store's gated array, then on its all-NOR
    array, threaded after the query before it, and compare both with one
    oracle scan of the stored values; stop at the first failure. Queries
    are drawn and checked one at a time, so no column of them is held.
    Each query's width is checked before it is scanned, so the oracle
    compares plain ints, and ``context`` is used as in ``_check_columns``."""
    words = tuple(words)
    arrays = [new_array(config, variant, words) for variant in Variant]
    values = [w.value for w in words]
    n = config.word_bits
    cases = 0
    prev = None
    for q in queries:
        if q.width != n:
            raise WidthMismatch(f"query width {q.width} != word_bits {n}")
        expected = oracle_search(values, q.value)
        for arr in arrays:
            cases += 1
            got = _flipped_gate_matches(arr, q.value) if fault else search(arr, q, prev).matches
            if got != expected:
                ctx = context.format(arr.variant.value)
                return VerifyOutcome(cases, Counterexample(words, q, expected, got, ctx))
        prev = q
    return VerifyOutcome(cases, None)


def verify_exhaustive(seed: int = 0, fault: bool = False) -> VerifyOutcome:
    """Small-geometry sweep: n = 4..6, k = 2..3, stores up to 32 words,
    every possible query against every store, streamed through both
    variants."""
    total = 0
    store_draws = Stream(_TAG_STORE, seed)
    for n in (4, 5, 6):
        keys = list(range(1 << n))
        universe = [BitWord(n, v) for v in keys]
        for k in (2, 3):
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
                out = _check_columns(cfg, words, keys, fault, ctx)
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
