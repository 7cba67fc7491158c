"""The full N x n CAM array: storage, the two-phase search protocol, and an
all-NOR baseline for comparison.

A search runs in two phases per word. Precharge phase: in the gated variant
the energizer evaluates the k-bit prefixes and the match line charges only
when ML_EN is high; the baseline charges every match line unconditionally.
Evaluation phase: any mismatching NOR cell on a precharged line pulls it low
(one discharge event, however many cells conduct); a line that was never
precharged stays low for free.

The gate has one home: ``_runs``, a table each array sets once that gives,
per search prefix, the run of ``_order`` whose ML_EN is high. The two
variants differ only in that table, so ``search`` has no variant branch and
reads it for both the query and the previous query. This module holds only
that counting path; ``SearchReport.traces`` comes from the truth-level
per-word model in ``trace``, which reads no gate fact.

The gate is indexed, as selective precharge is in hardware: a gated array
keeps its addresses stably sorted by stored prefix (``_order``), and each
prefix's run is its bucket in that order; the baseline's order is plain
address order and every prefix's run is all of it. ``_ordered`` holds the
stored values in ``_order``'s order, so a search slices its run's values
and tests the key against them at C speed, and lists the matching addresses
(ascending, because the sort is stable) only on a hit. Its cost is O(run),
not O(N); the ML_EN-transition count is two run sizes.

Arrays are immutable values, built whole from their stored words: there is
no array-level write, and a changed store is a new array. ``search``
is a pure function of (array, query, previous query), the previous query
being the explicit context for searchline-toggle and ML_EN-transition
counting, so concurrent searches are deterministic under any scheduling.
``run_search_stream`` applies the same rules to a whole stream at once, in
C-level passes over a column of int query keys, and returns one column per
count (``SearchRun``) instead of a record per query. Its match test is a
membership test in one set of stored values per distinct run: O(N) to
build once per stream, then O(1) per query, and only a hit slices its run
to list the addresses. ``search`` keeps its slice scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, compress, islice
from operator import add, contains, mul, ne, sub, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import BitWord, CamConfig
from .errors import InvalidConfig, WidthMismatch
from .trace import WordTrace, word_traces


# Builds a NamedTuple from a ready tuple of all its fields, without the
# Python-level argument binding of the class's generated ``__new__``.
_new_tuple = tuple.__new__


class Variant(Enum):
    """Array organization: prefix-gated precharge or the all-NOR baseline."""

    SELECTIVE = "selective"
    BASELINE_NOR = "baseline-nor"


class EventTotals(NamedTuple):
    """Per-search (or per-run, when summed) switching-event counts.

    ``sl_toggles`` counts toggled searchline columns once each; the energy
    model scales by the number of words sharing the column. ML_EN transition
    energy is carried by the evaluation class, so ``ml_en_transitions`` is
    reported for activity analysis only.

    A tuple, so one is built per search at tuple cost: ``+`` concatenates
    and ``*`` repeats as for any tuple, and a record equals the plain tuple
    of its counts. A run's counts are summed by ``sum_event_totals``.
    """

    ml_en_transitions: int = 0
    ml_precharges: int = 0
    ml_discharges: int = 0
    sl_toggles: int = 0
    mle_evaluations: int = 0


def _derived(default):
    return field(init=False, repr=False, compare=False, default=default)


@dataclass(frozen=True)
class CamArray:
    """Stored words plus the gate facts the search path works on, set once.

    The baseline has no energizer (``_energizers`` is 0). ``_order`` lists
    the addresses, stably sorted by stored prefix in a gated array and in
    address order in the baseline, and ``_ordered[i]`` is the value stored
    at ``_order[i]``. For search prefix p the lines with ML_EN high are
    ``_order[slice(*_runs[p])]``: p's bucket in a gated array, every line in
    the baseline. ``_idle`` is the run before the first search: none gated
    (ML_EN powers up low), every line in the baseline. A line with ML_EN
    high matches when its stored value equals the query's.
    """

    config: CamConfig
    words: tuple[BitWord, ...]
    variant: Variant = Variant.SELECTIVE
    _ordered: tuple[int, ...] = _derived(())
    _energizers: int = _derived(0)
    _order: Sequence[int] = _derived(())
    _runs: Sequence[tuple[int, int]] = _derived(())
    _idle: tuple[int, int] = _derived((0, 0))

    def __post_init__(self) -> None:
        cfg = self.config
        if len(self.words) != cfg.num_words:
            raise InvalidConfig(
                f"expected {cfg.num_words} words, got {len(self.words)}"
            )
        for w in self.words:
            if w.width != cfg.word_bits:
                raise WidthMismatch(
                    f"stored word width {w.width} != word_bits {cfg.word_bits}"
                )
        n, k, size = cfg.word_bits, cfg.mle_bits, cfg.num_words
        gated = self.variant is Variant.SELECTIVE
        # Every tuple fact is copied from a list, never from an iterator:
        # CPython resizes a tuple it sizes from an iterator, and the resized
        # blocks pile up on its small-tuple free lists, which peak memory
        # counts (about 50 KB of the ``camsim verify`` peak).
        values = [w.value for w in self.words]
        if gated:
            order, runs = _gate_index(values, n - k, k)
            values = [values[a] for a in order]
            idle = (0, 0)
        else:
            order, idle = range(size), (0, size)
            runs = (idle,) * (1 << k)
        set_fact = object.__setattr__
        set_fact(self, "_energizers", size if gated else 0)
        set_fact(self, "_ordered", tuple(values))
        set_fact(self, "_order", order)
        set_fact(self, "_runs", runs)
        set_fact(self, "_idle", idle)


def new_array(
    config: CamConfig,
    variant: Variant,
    words: Sequence[BitWord],
) -> CamArray:
    """Build an array that stores ``words``, one per address."""
    return CamArray(config, tuple(words), variant)


def oracle_search(values: Sequence[int], key: int) -> tuple[int, ...]:
    """Reference model: a plain linear scan of the stored values, in address
    order, for exact equality with ``key``. It reads no gate fact, so it is
    independent of ``search``; like ``search`` it tests ``key in values`` at
    C speed and lists the (ascending) addresses only on a hit. Widths are
    the caller's to check."""
    if key not in values:
        return ()
    return tuple([addr for addr, v in enumerate(values) if v == key])


def _gate_index(
    values: Sequence[int], shift: int, k: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """``_order`` and ``_runs`` for the stored values, whose prefixes are
    their top k bits (``value >> shift``): a counting sort, stable, and
    cheaper here than sorted() with a key. Prefix p's run spans its bucket.
    The buckets go before the tuple copy of the order is made, so they do
    not add to peak memory."""
    buckets: list[list[int]] = [[] for _ in range(1 << k)]
    for addr, v in enumerate(values):
        buckets[v >> shift].append(addr)
    starts = [*accumulate(map(len, buckets), initial=0)]
    order = [a for b in buckets for a in b]
    del buckets
    return tuple(order), tuple([*zip(starts, starts[1:])])


class SearchReport(NamedTuple):
    """Outcome of one search: matches, energization, and event tallies.

    The energy is the model's: ``energy.totals_energy(report.event_totals,
    ...)``; the delay is a per-variant constant, ``energy.search_delay``.
    ``traces`` is rebuilt on demand from the immutable inputs, so callers
    that only read matches and totals skip the per-word objects. A tuple,
    like ``EventTotals``; the repr leaves out ``array``.
    """

    array: CamArray
    query: BitWord
    prev_query: Optional[BitWord]
    matches: tuple[int, ...]
    energized_count: int
    event_totals: EventTotals

    def __repr__(self) -> str:
        # A tuple repr would print all N stored words of ``array``.
        shown = zip(self._fields[1:], self[1:])
        return f"SearchReport({', '.join(f'{k}={v!r}' for k, v in shown)})"

    @property
    def config(self) -> CamConfig:
        return self.array.config

    @property
    def variant(self) -> Variant:
        return self.array.variant

    @property
    def traces(self) -> tuple[WordTrace, ...]:
        a = self.array
        k, gated = a.config.mle_bits, bool(a._energizers)
        return word_traces(a.words, k, gated, self.query, self.prev_query)


def _hit_addresses(
    bucket: tuple[int, ...], key: int, order: Sequence[int], lo: int
) -> tuple[int, ...]:
    """The addresses, ascending, of the ``bucket`` entries equal to ``key``,
    where entry i of the bucket is stored at ``order[lo + i]``. Each hit is
    found by a C-level ``tuple.index`` scan from the one before it."""
    out = []
    i = -1
    for _ in range(bucket.count(key)):
        i = bucket.index(key, i + 1)
        out.append(order[lo + i])
    return tuple(out)


def search(
    array: CamArray, query: BitWord, prev_query: Optional[BitWord] = None
) -> SearchReport:
    """Run the two-phase protocol for one query against every word.

    ``prev_query`` is the previously driven search word; columns that changed
    count one searchline toggle each, and ML_EN charge/discharge transitions
    are taken against the levels that query produced. The first search after
    construction (prev_query None) toggles all n columns and charges ML_EN
    from low.
    """
    cfg = array.config
    n = cfg.word_bits
    if query.width != n:
        raise WidthMismatch(f"query width {query.width} != word_bits {n}")
    shift = n - cfg.mle_bits
    key = query.value
    runs = array._runs
    run = lo, hi = runs[key >> shift]
    if prev_query is None:
        prev_run, sl_toggles = array._idle, n
    else:
        if prev_query.width != n:
            raise WidthMismatch(
                f"previous query width {prev_query.width} != word_bits {n}"
            )
        prev_run = runs[prev_query.value >> shift]
        sl_toggles = (key ^ prev_query.value).bit_count()
    bucket = array._ordered[lo:hi]
    matches = _hit_addresses(bucket, key, array._order, lo) if key in bucket else ()
    precharged = hi - lo
    # Distinct runs never overlap, so every line of both changes its ML_EN.
    plo, phi = prev_run
    # _new_tuple checks no field count, so every field is passed.
    totals = _new_tuple(EventTotals, (
        0 if run == prev_run else precharged + phi - plo,
        precharged,
        precharged - len(matches),
        sl_toggles,
        array._energizers,
    ))
    return _new_tuple(SearchReport, (
        array, query, prev_query, matches, precharged, totals
    ))


@dataclass(frozen=True)
class SearchRun:
    """A query stream's outcome: one entry per query in each column.

    Entry i of a column is the field of that name in what ``search`` reports
    for key i, threaded after key i - 1. ``energized`` is each query's ML
    precharge count as well; its discharges are ``energized - len(matches)``
    and its energizer evaluations are ``array._energizers`` for every query,
    so neither is stored. ``len(run)`` is the number of queries.

    Every count column holds plain ``int``s, and ``matches`` holds tuples of
    ``int`` addresses: ``workload.query_summary`` writes each entry as its
    ``str``, which is a JSON integer only for an ``int``.
    """

    array: CamArray = field(repr=False)
    matches: Sequence[tuple[int, ...]]
    energized: Sequence[int]
    ml_en_transitions: Sequence[int]
    sl_toggles: Sequence[int]

    def __len__(self) -> int:
        return len(self.matches)

    @property
    def ml_discharges(self) -> list[int]:
        return [*map(sub, self.energized, map(len, self.matches))]


def sum_event_totals(run: SearchRun) -> EventTotals:
    """The run's event counts, summed column by column; an empty run sums to
    ``EventTotals()``."""
    precharges = sum(run.energized)
    return EventTotals(
        sum(run.ml_en_transitions),
        precharges,
        precharges - sum(map(len, run.matches)),
        sum(run.sl_toggles),
        run.array._energizers * len(run),
    )


def _check_keys(keys: Sequence[int], n: int, prev_key: Optional[int] = None) -> None:
    """Raise ``WidthMismatch`` for the first key that is negative or 2^n or
    more, in the order q0, ``prev_key``, q1, ... in which ``search`` meets
    them. A C-level ``min`` and ``max`` clear a sound stream."""
    ends = [min(keys), max(keys)] + ([] if prev_key is None else [prev_key])
    if min(ends) >= 0 and not max(ends) >> n:
        return
    named = [(f"query {i}", key) for i, key in enumerate(keys)]
    if prev_key is not None:
        named.insert(1, ("previous query", prev_key))
    for name, key in named:
        if key < 0 or key >> n:
            raise WidthMismatch(f"{name}: key {key:#x} does not fit in word_bits {n}")


def run_search_stream(
    array: CamArray,
    keys: Iterable[int],
    prev_key: Optional[int] = None,
) -> SearchRun:
    """Search a stream of int query keys in order, threading each key as the
    next one's toggle baseline, and count the whole run in C-level passes
    over the keys: the same counts and matches as ``search`` on
    ``BitWord(n, key)`` query by query, with no per-query record.

    Where ``search`` scans a slice of its run's stored values, the stream
    builds one ``frozenset`` of them per distinct run (O(N) once per call;
    the baseline's 2^k prefixes share one set of all N values) and tests
    each key's membership in O(1). Only a hit lists addresses from the run.

    ``_check_keys`` raises for a key that is not an n-bit value before any
    search, and a ``BitWord`` in place of a key is a ``TypeError``. An empty
    stream gives an empty run, whatever ``prev_key`` is."""
    keys = list(keys)
    if not keys:
        return SearchRun(array, [], [], [], [])
    cfg = array.config
    n = cfg.word_bits
    _check_keys(keys, n, prev_key)
    shift = n - cfg.mle_bits
    prefixes = [*map(shift.__rrshift__, keys)]
    table = array._runs
    runs = [*map(table.__getitem__, prefixes)]
    sizes = [hi - lo for lo, hi in table]
    energized = [*map(sizes.__getitem__, prefixes)]
    if prev_key is None:
        prev_run, sl_first = array._idle, n
    else:
        prev_run = table[prev_key >> shift]
        sl_first = (keys[0] ^ prev_key).bit_count()
    # search's rule: no transition when the run stays, else every line of
    # both runs changes its ML_EN. A bool times an int is an int.
    ml_en = [*map(
        mul,
        map(ne, runs, chain((prev_run,), runs)),
        map(add, energized, chain((prev_run[1] - prev_run[0],), energized)),
    )]
    sl = [sl_first, *map(int.bit_count, map(xor, islice(keys, 1, None), keys))]
    # One set per distinct run, not per prefix: the baseline's 2^k prefixes
    # share one set of N values instead of 2^k copies of it.
    ordered, order = array._ordered, array._order
    sets = {run: frozenset(ordered[slice(*run)]) for run in {*table}}
    stored = [*map(sets.__getitem__, table)]
    matches: list[tuple[int, ...]] = [()] * len(keys)
    hits = map(contains, map(stored.__getitem__, prefixes), keys)
    for i in compress(range(len(keys)), hits):
        lo, hi = runs[i]
        matches[i] = _hit_addresses(ordered[lo:hi], keys[i], order, lo)
    return SearchRun(array, matches, energized, ml_en, sl)
