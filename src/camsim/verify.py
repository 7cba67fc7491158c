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
shows up. It draws its trials as int keys, ``TRIALS_PER_CHUNK`` at a
time through the verbs' chunker (``workload._key_chunks``), and streams
each chunk on both variants after the last key of the chunk before. A
chunk's draws are columns (``_trial_keys``): its styles in one
``Stream.bits_column``, then, through ``Stream.bits_at``, query bits only
for its uniform trials, picks only for its copies and flips only for its
flipped copies. Each key
is the one that per-trial ``unit``, ``bits`` and ``pick`` calls draw. A
store's all-NOR array is its gated array with the variant replaced
(``_store``), so both hold one ``array.Store``, and every stream and
single ``search`` of the store reads its matches from one dict of
addresses, built once per store. The all-NOR array has no gate, so only
the gated array builds a prefix histogram. Both tiers check every query
on the gated and on the all-NOR array of a store against one oracle
scan, so a ``VerifyOutcome.cases`` counts two searches per query, and
either tier reports its first failure in the same order: query by query,
gated before all-NOR. The randomized tier also checks ``search``, the
public one-key entry point, on the first trial of each chunk once the
chunk's streams pass. ``search`` has no code of its own left, it is the
stream of one key, but the benchmark times it as its ``array.search``
layer (``bench/spans.py`` wraps this module's ``search``), so that check
and ``search`` itself go when the benchmark reads camsim's phases
(ROADMAP items 2 and 25). Both tiers hold every word as an int: their
key universes, their stores, each an ``array.Store``, which
range-checks its values once, when it is built, and their
counterexamples, which render the words as text only in ``describe``.
The oracle scans that ``Store`` as a plain tuple of ints, with the
tuple's own ``count`` and ``index``, never its dict of addresses; widths
are checked before a scan or a stream, not inside it: a store's by
``new_array``, the keys by ``_key_columns``, once for every store that
shares them.

The engine reads matches by stored value, so a wrong gate would still give
the right matches; the count oracle checks the gate. It takes occ(p), the
number of stored words with prefix p, from the values (no gate fact of the
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
from functools import partial
from itertools import chain, compress, count, islice
from operator import add, mul, ne, not_, xor
from typing import Callable, Optional, Sequence, Union

from .array import (
    CamArray,
    SearchRun,
    Store,
    Variant,
    _check_keys,
    new_array,
    oracle_search,
    run_search_stream,
    search,
)
from .core import CamConfig, word_text
from .draws import Stream
from .errors import InvalidConfig

_TAG_STORE = b"verify-store"
_TAG_TRIAL = b"verify-trial"
_TAG_STYLE = b"verify-style"
_TAG_FLIP = b"verify-flip"


@dataclass(frozen=True)
class Counterexample:
    """A failing search of ``width``-bit words, each an int: the stored
    ``words`` in address order and the ``query`` key. ``field`` names what
    failed: ``"matches"``, with address tuples in ``expected`` and ``got``,
    or a count, with two ints. A count also depends on ``prev_query``, the
    key searched before this one (None for the first search)."""

    width: int
    words: tuple[int, ...]
    query: int
    expected: Union[tuple[int, ...], int]
    got: Union[tuple[int, ...], int]
    context: str
    field: str = "matches"
    prev_query: Optional[int] = None

    def describe(self) -> str:
        n = self.width
        stored = ", ".join([word_text(w, n) for w in self.words])
        query = word_text(self.query, n)
        if self.field == "matches":
            expected, got = list(self.expected), list(self.got)
        else:
            expected, got = f"{self.field} {self.expected}", self.got
            if self.prev_query is not None:
                query += f" after {word_text(self.prev_query, n)}"
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


def _store(config: CamConfig, values: Store) -> tuple[list, Store, list]:
    """A store to check: its gated and its all-NOR array (``new_array``
    rejects a ``Store`` of the wrong width), which both hold ``values``,
    the ``Store`` itself, which the oracle scans as a plain tuple of ints
    with its own ``count`` and ``index``, and occ, where occ[p] is how many
    of the values store the k-bit prefix p, counted from the values and
    not read from an array."""
    gated = new_array(config, Variant.SELECTIVE, values)
    arrays = [gated, replace(gated, variant=Variant.BASELINE_NOR)]
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
    ``prev_key``'s prefix. Every key, and ``prev_key``, is first checked to
    be an n-bit value, so the oracle scan of any store that these columns
    serve compares plain ints; a store's keys are checked once for every
    store that shares them."""
    _check_keys(keys, n, prev_key)
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
    return search(arr, key, prev_key)


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
    stored values per key, and the count oracle. ``key_columns`` is
    ``_key_columns`` of the keys after ``prev_key``, which checked every
    key's width and which the exhaustive tier computes once for every
    store it checks. The verdict is the one a query-major loop gives: a
    failure of the j-th variant at query i is case 2i + j + 1, so the
    all-NOR array is searched only up to the gated array's first failure
    (not at all for a failure at query 0), and only one engine's run is
    alive at a time.
    ``context`` is a format string whose one field takes the variant of a
    failing search."""
    arrays, values, occ = store
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
    prev = None if field == "matches" else before
    n = arr.config.word_bits
    ce = Counterexample(n, tuple(values), keys[i], want, got, ctx, field, prev)
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
        for k in (2, 3):
            key_columns = _key_columns(keys, n, k)
            # every (stored word, query) pair at N=1
            stores = [("single-word", [v]) for v in keys]
            stores += [
                # full table (capped at 32 words), all queries hit something
                ("store", keys[:32]),
                # every word shares the same k-bit prefix; worst case gating
                ("store", [v for v in keys if v >> (n - k) == 1][:8]),
                # duplicates must both report
                ("store", [3, 5, 3, 0]),
            ]
            # seeded random stores of assorted sizes
            for j, size in enumerate((5, 17, 32)):
                base = n * 1000 + k * 100 + j * 10
                stores.append(("store", store_draws.bits_column(size, n, start=base)))
            # A Store keeps the dict of addresses that its streams build, so
            # each is built only as it is checked, and goes with its check.
            for kind, values in stores:
                config = CamConfig(len(values), n, k, seed=seed)
                store = _store(config, Store(values, n))
                ctx = f"n={n} k={k} {{}} {kind}"
                out = _check_columns(store, keys, key_columns, engine, ctx)
                total += out.cases
                if not out.ok:
                    return VerifyOutcome(total, out.counterexample)
    return VerifyOutcome(total, None)


def _trial_draws(seed: int) -> tuple[Stream, Stream, Stream]:
    """The randomized tier's streams at ``seed``: each trial's style, its
    query bits or pick, and its flipped bit."""
    return tuple(Stream(tag, seed) for tag in (_TAG_STYLE, _TAG_TRIAL, _TAG_FLIP))


def _trial_keys(
    draws: tuple[Stream, Stream, Stream],
    values: Sequence[int],
    n: int,
    start: int,
    stop: int,
) -> list[int]:
    """The query keys of trials ``start`` .. ``stop`` - 1, drawn as columns
    from ``_trial_draws``' streams. Trial i's style is its 64-bit style draw
    over 2**64, as ``Stream.unit`` computes it: below 0.6 the key is its n
    query bits, else a copy of the stored value at its 64-bit pick modulo
    N, and from 0.9 on that copy with bit ``n - 1 - flip % n`` inverted,
    flip being its 64-bit flip draw. The query bits and the pick are draws
    of one stream, at widths n and 64. Each trial's query bits, pick and
    flip are drawn only where it uses them."""
    styles, trials, flips = draws
    fractions = [u / 2.0**64 for u in styles.bits_column(stop - start, 64, start)]
    indices = range(start, stop)
    uniform = [f < 0.6 for f in fractions]
    drawn = iter(trials.bits_at(compress(indices, uniform), n))
    size = len(values)
    copies = iter([
        values[u % size]
        for u in trials.bits_at(compress(indices, map(not_, uniform)), 64)
    ])
    masks = iter([
        1 << (n - 1 - u % n)
        for u in flips.bits_at(compress(indices, [f >= 0.9 for f in fractions]), 64)
    ])
    return [
        next(drawn) if f < 0.6 else next(copies) if f < 0.9
        else next(copies) ^ next(masks)
        for f in fractions
    ]


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
    copy of a stored word, 10% a stored word with one flipped bit
    (``_trial_keys``). The trials are drawn, as columns, and checked
    ``TRIALS_PER_CHUNK`` at a time, cut by the verbs' chunker
    ``workload._key_chunks``, each chunk streamed after the last key of the
    one before. Every stream and single ``search`` reads its matches from
    the store's one dict of addresses, built once per call. Once a chunk's
    streams pass, its first trial is searched again with
    ``search`` on both variants, after the same previous key, and checked
    against the same oracles; a failure there is that trial's case, in the
    context ``randomized <variant> search``. So the verdict does not depend
    on the chunk size, except where only ``search`` fails."""
    from .workload import _key_chunks, gen_words

    if trials < 0:
        raise InvalidConfig(f"trials must be >= 0, got {trials}")
    n, k = config.word_bits, config.mle_bits
    store = _store(config, gen_words(config.num_words, n, config.seed))
    draw = partial(_trial_keys, _trial_draws(seed), store[1], n)
    engine = _fault_run if fault else run_search_stream
    total = 0
    for _, prev_key, keys in _key_chunks(trials, draw, TRIALS_PER_CHUNK):
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
    return VerifyOutcome(total, None)
