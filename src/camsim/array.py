"""The full N x n CAM array: storage, the two-phase search protocol, and an
all-NOR baseline for comparison.

A search runs in two phases per word. Precharge phase: in the gated variant
the energizer evaluates the k-bit prefixes and the match line charges only
when ML_EN is high; the baseline charges every match line unconditionally.
Evaluation phase: any mismatching NOR cell on a precharged line pulls it low
(one discharge event, however many cells conduct); a line that was never
precharged stays low for free.

The gate only counts. The energizer decides how many match lines
precharge, never which words match: a word that matches the query stores
its value, so its prefix is the query's and its line is energized on either
variant. So each array keeps, set once, its stored ints in address order
(``_values``), from which matches are read by value, and the gate as a
prefix histogram: a key's bucket is ``key >> _shift`` (its k-bit prefix
when gated; one bucket for every key on the all-NOR array, which
precharges every line), and ``_runs[b]`` counts the lines whose ML_EN is
high for bucket b. The variants differ only in those facts, so
``search`` has no variant branch. When the bucket repeats no ML_EN changes;
otherwise every line of both buckets changes its ML_EN, since two gated
buckets share no line. This module imports nothing of the truth-level
per-word model (``trace``, ``mle``, ``cells``), which the tests check every
count against: ``trace.word_traces`` rebuilds a search's per-word levels
from the array and its queries.

Arrays are immutable values, built whole from their stored words: there is
no array-level write, and a changed store is a new array. ``search``
is a pure function of (array, query, previous query), the previous query
being the explicit context for searchline-toggle and ML_EN-transition
counting, so concurrent searches are deterministic under any scheduling.
``run_search_stream`` applies the same rules to a whole stream at once, in
C-level passes over a column of int query keys, and returns one column per
count (``SearchRun``) instead of a record per query. Both records hold
only what a search computes, never the array or the queries.

A single ``search`` tests its key against all N stored values with a
C-level ``in``, and lists a hit's addresses with ``tuple.count`` and
``tuple.index`` scans. A stream instead builds one dict from stored value
to ascending addresses per call, in O(N), and reads every key's matches
from it in one C-level ``map``, O(1) per query. The dict goes when the call
returns: kept on each array, it would add about 24 KB to every 256 x 144
array that ``camsim verify`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice, repeat
from operator import add, mul, ne, sub, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import BitWord, CamConfig
from .errors import InvalidConfig, WidthMismatch


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
    """Stored words plus the facts the search path works on, set once.

    ``_values[a]`` is the value stored at address a. A key's gate bucket is
    ``key >> _shift``: its k-bit prefix in a gated array, 0 for every key in
    the baseline. ``_runs[b]`` is the number of lines whose ML_EN is high for
    bucket b: the words stored with prefix b when gated, all N in the
    baseline. ``_idle`` is the (bucket, lines) pair before the first search:
    (None, 0) gated, as ML_EN powers up low, and (0, N) in the baseline. The
    baseline has no energizer (``_energizers`` is 0).
    """

    config: CamConfig
    words: tuple[BitWord, ...]
    variant: Variant = Variant.SELECTIVE
    _values: tuple[int, ...] = _derived(())
    _energizers: int = _derived(0)
    _shift: int = _derived(0)
    _runs: tuple[int, ...] = _derived(())
    _idle: tuple[Optional[int], int] = _derived((None, 0))

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
        shift = n - k if gated else n
        set_fact = object.__setattr__
        set_fact(self, "_energizers", size if gated else 0)
        set_fact(self, "_values", tuple(values))
        set_fact(self, "_shift", shift)
        set_fact(self, "_runs", _gate_index(values, shift, n))
        set_fact(self, "_idle", (None, 0) if gated else (0, size))


def new_array(
    config: CamConfig,
    variant: Variant,
    words: Sequence[BitWord],
) -> CamArray:
    """Build an array that stores ``words``, one per address."""
    return CamArray(config, tuple(words), variant)


def oracle_search(values: Sequence[int], key: int) -> tuple[int, ...]:
    """Reference model: a plain linear scan of the stored values, in address
    order, for exact equality with ``key``. It reads no fact of an array,
    and it lists the (ascending) addresses of a hit with its own loop, not
    with ``search``'s ``tuple.count`` and ``tuple.index`` scans; like
    ``search`` it tests ``key in values`` at C speed first. Widths are the
    caller's to check."""
    if key not in values:
        return ()
    return tuple([addr for addr, v in enumerate(values) if v == key])


def _gate_index(values: Sequence[int], shift: int, n: int) -> tuple[int, ...]:
    """``_runs``, the gate's histogram of the stored n-bit values: entry b
    counts the values whose bucket ``value >> shift`` is b."""
    counts = [0] * (1 << (n - shift))
    for v in values:
        counts[v >> shift] += 1
    return tuple(counts)


class SearchReport(NamedTuple):
    """Outcome of one search: the matching addresses, ascending, and the
    event tallies; ``event_totals.ml_precharges`` is the energized count.

    The energy is the model's: ``energy.totals_energy(report.event_totals,
    ...)``; the delay is a per-variant constant, ``energy.search_delay``.
    A tuple, like ``EventTotals``.
    """

    matches: tuple[int, ...]
    event_totals: EventTotals


def _hit_addresses(values: tuple[int, ...], key: int) -> tuple[int, ...]:
    """The addresses, ascending, at which ``values`` holds ``key``: one
    C-level ``tuple.count`` scan, then a ``tuple.index`` scan from each hit
    to the next."""
    out = []
    i = -1
    for _ in range(values.count(key)):
        i = values.index(key, i + 1)
        out.append(i)
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

    The gate gives only the counts, from the query's and the previous
    query's buckets. The matches are the addresses that store the query's
    value, found by a C-level scan of all N stored values, hit or miss.
    """
    n = array.config.word_bits
    if query.width != n:
        raise WidthMismatch(f"query width {query.width} != word_bits {n}")
    key = query.value
    shift, runs = array._shift, array._runs
    bucket = key >> shift
    if prev_query is None:
        (prev_bucket, prev_precharged), sl_toggles = array._idle, n
    else:
        if prev_query.width != n:
            raise WidthMismatch(
                f"previous query width {prev_query.width} != word_bits {n}"
            )
        prev_bucket = prev_query.value >> shift
        prev_precharged = runs[prev_bucket]
        sl_toggles = (key ^ prev_query.value).bit_count()
    values = array._values
    matches = _hit_addresses(values, key) if key in values else ()
    precharged = runs[bucket]
    # _new_tuple checks no field count, so every field is passed.
    totals = _new_tuple(EventTotals, (
        0 if bucket == prev_bucket else precharged + prev_precharged,
        precharged,
        precharged - len(matches),
        sl_toggles,
        array._energizers,
    ))
    return _new_tuple(SearchReport, (matches, totals))


@dataclass(frozen=True)
class SearchRun:
    """A query stream's outcome: one entry per query in each column.

    Entry i of a column is the field of that name in what ``search`` reports
    for key i, threaded after key i - 1. ``energized`` is each query's ML
    precharge count; its discharges are ``energized - len(matches)``, so
    they are not stored. ``energizers`` is every query's energizer
    evaluations: N on a gated array, 0 on the all-NOR one. ``len(run)`` is
    the number of queries.

    Every count column holds plain ``int``s, and ``matches`` holds tuples of
    ``int`` addresses: ``workload.query_summary`` writes each entry as its
    ``str``, which is a JSON integer only for an ``int``.
    """

    energizers: int
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
        run.energizers * len(run),
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


def _value_index(values: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Each stored value's addresses, ascending, keyed by the value. Most
    stores hold distinct values, so each value first gets its one address;
    only a store with a repeated value is grouped again, through lists."""
    index = {value: (addr,) for addr, value in enumerate(values)}
    if len(index) == len(values):
        return index
    grouped: dict[int, list[int]] = {}
    for addr, value in enumerate(values):
        grouped.setdefault(value, []).append(addr)
    return {value: tuple(addrs) for value, addrs in grouped.items()}


def run_search_stream(
    array: CamArray,
    keys: Iterable[int],
    prev_key: Optional[int] = None,
) -> SearchRun:
    """Search a stream of int query keys in order, threading each key as the
    next one's toggle baseline, and count the whole run in C-level passes
    over the keys: the same counts and matches as ``search`` on
    ``BitWord(n, key)`` query by query, with no per-query record.

    Where ``search`` scans all N stored values, the stream builds one dict
    from stored value to ascending addresses (O(N) once per call, dropped on
    return) and reads each key's matches from it in O(1).

    ``_check_keys`` raises for a key that is not an n-bit value before any
    search, and a ``BitWord`` in place of a key is a ``TypeError``. An empty
    stream gives an empty run, whatever ``prev_key`` is."""
    keys = list(keys)
    if not keys:
        return SearchRun(array._energizers, [], [], [], [])
    n = array.config.word_bits
    _check_keys(keys, n, prev_key)
    shift, runs = array._shift, array._runs
    buckets = [*map(shift.__rrshift__, keys)]
    energized = [*map(runs.__getitem__, buckets)]
    if prev_key is None:
        (prev_bucket, prev_precharged), sl_first = array._idle, n
    else:
        prev_bucket = prev_key >> shift
        prev_precharged = runs[prev_bucket]
        sl_first = (keys[0] ^ prev_key).bit_count()
    # search's rule: no transition when the bucket stays, else every line
    # of both buckets changes its ML_EN. A bool times an int is an int.
    ml_en = [*map(
        mul,
        map(ne, buckets, chain((prev_bucket,), buckets)),
        map(add, energized, chain((prev_precharged,), energized)),
    )]
    sl = [sl_first, *map(int.bit_count, map(xor, islice(keys, 1, None), keys))]
    index = _value_index(array._values)
    matches = [*map(index.get, keys, repeat(()))]
    return SearchRun(array._energizers, matches, energized, ml_en, sl)
