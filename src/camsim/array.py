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
variant. So each array keeps, set once, its store as ints in address
order (``values``; no ``BitWord`` of it), from which matches are read by
value, and the gate as a prefix histogram: a key's bucket is
``key >> _shift`` (its k-bit prefix when gated; one bucket for every key
on the all-NOR array, which precharges every line), and ``_runs[b]``
counts the lines whose ML_EN is high for bucket b. The variants differ
only in those facts, so the engine has no variant branch. When the bucket
repeats no ML_EN changes; otherwise every line of both buckets changes its
ML_EN, since two gated buckets share no line. This module imports nothing
of the truth-level per-word model (``trace``, ``mle``, ``cells``), which
the tests check every count against: ``trace.word_traces`` rebuilds a
search's per-word levels from the array and its queries.

Arrays are immutable values, built whole: ``new_array`` checks the width
of each stored ``BitWord`` and keeps its int value. There is no
array-level write, and a changed store is a new array.
``run_search_stream`` is the one search engine. It applies the rules above
to a sequence of int query keys, in one set of C-level passes over the
keys, and returns one column per count (``SearchRun``) instead of a record
per query. It is a pure function of (array, keys, previous key),
the previous key being the explicit context for searchline-toggle and
ML_EN-transition counting, so concurrent searches are deterministic under
any scheduling. ``search`` is the stream of one ``BitWord`` query, after
an optional previous one: a one-key ``SearchRun``, the one record of a
search, which holds only what the search computes, never the array or
the queries.

A stream reads every key's matches from a dict from stored value to
ascending addresses in one C-level ``map``, O(1) per query. The dict is a
fact of the stored values, not of a gate: an array's ``values`` is a
``Store``, a tuple of the ints that builds the dict (``Store.addresses``,
O(N)) on the first stream of any array over it and keeps it. Arrays made
from one with ``dataclasses.replace(array, variant=...)`` or
``replace(array, config=...)`` keep its ``Store``, so every gate over the
same words reads one dict. It is built lazily, so building an array that
is never searched costs no dict.
Cutting a long stream into chunks is the caller's: ``camsim.cli`` draws,
searches and prices its keys ``KEYS_PER_CHUNK`` at a time, each chunk
threaded after the last key of the one before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from operator import add, mul, ne, sub, xor
from typing import NamedTuple, Optional, Sequence

from .core import BitWord, CamConfig
from .errors import InvalidConfig, WidthMismatch


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

    A tuple, so one is built at tuple cost: ``+`` concatenates
    and ``*`` repeats as for any tuple, and a record equals the plain tuple
    of its counts. A run's counts are summed by ``sum_event_totals``.
    """

    ml_en_transitions: int = 0
    ml_precharges: int = 0
    ml_discharges: int = 0
    sl_toggles: int = 0
    mle_evaluations: int = 0


class Store(tuple):
    """The stored values as ints, in address order: a tuple that keeps the
    dict from which ``run_search_stream`` reads matches, built on first use.
    Every array that holds this ``Store`` shares that dict."""

    @cached_property
    def addresses(self) -> dict[int, tuple[int, ...]]:
        """Each stored value's addresses, ascending, keyed by the value.
        Most stores hold distinct values, so each value first gets its one
        address; only a store with a repeated value is grouped again,
        through lists."""
        index = {value: (addr,) for addr, value in enumerate(self)}
        if len(index) == len(self):
            return index
        grouped: dict[int, list[int]] = {}
        for addr, value in enumerate(self):
            grouped.setdefault(value, []).append(addr)
        return {value: tuple(addrs) for value, addrs in grouped.items()}


def _derived(default):
    return field(init=False, repr=False, compare=False, default=default)


@dataclass(frozen=True)
class CamArray:
    """Stored values plus the facts the search path works on, set once.

    ``values[a]`` is the n-bit value stored at address a: the store is kept
    once, as ints, in a ``Store`` that ``dataclasses.replace`` passes on to
    the array it makes, so a second gate over the same words shares it and
    its dict of addresses. A key's gate bucket is ``key >> _shift``: its k-bit
    prefix in a gated array, 0 for every key in the baseline. ``_runs[b]``
    is the number of lines whose ML_EN is high for bucket b: the words
    stored with prefix b when gated, all N in the baseline. ``_idle`` is the
    (bucket, lines) pair before the first search: (None, 0) gated, as ML_EN
    powers up low, and (0, N) in the baseline. The baseline has no
    energizer (``_energizers`` is 0).
    """

    config: CamConfig
    values: tuple[int, ...]
    variant: Variant = Variant.SELECTIVE
    _energizers: int = _derived(0)
    _shift: int = _derived(0)
    _runs: tuple[int, ...] = _derived(())
    _idle: tuple[Optional[int], int] = _derived((None, 0))

    def __post_init__(self) -> None:
        cfg = self.config
        n, k, size = cfg.word_bits, cfg.mle_bits, cfg.num_words
        values = self.values if type(self.values) is Store else Store(self.values)
        if len(values) != size:
            raise InvalidConfig(f"expected {size} words, got {len(values)}")
        if min(values) < 0 or max(values) >> n:
            raise WidthMismatch(f"a stored value does not fit in word_bits {n}")
        gated = self.variant is Variant.SELECTIVE
        shift = n - k if gated else n
        set_fact = object.__setattr__
        set_fact(self, "values", values)
        set_fact(self, "_energizers", size if gated else 0)
        set_fact(self, "_shift", shift)
        set_fact(self, "_runs", _gate_index(values, shift, n))
        set_fact(self, "_idle", (None, 0) if gated else (0, size))


def new_array(
    config: CamConfig,
    variant: Variant,
    words: Sequence[BitWord],
) -> CamArray:
    """Build an array that stores ``words``, one per address, as their int
    values, once each word's width is checked against ``config``."""
    n = config.word_bits
    for w in words:
        if w.width != n:
            raise WidthMismatch(f"stored word width {w.width} != word_bits {n}")
    # A tuple copied from a list, never from an iterator: CPython resizes a
    # tuple it sizes from an iterator, and the resized blocks pile up on its
    # small-tuple free lists, which peak memory counts (about 50 KB of the
    # ``camsim verify`` peak).
    return CamArray(config, Store([w.value for w in words]), variant)


def oracle_search(values: Sequence[int], key: int) -> tuple[int, ...]:
    """Reference model: a plain linear scan of the stored values, in address
    order, for exact equality with ``key``. It reads no fact of an array,
    and it lists the (ascending) addresses of a hit with its own loop, not
    from ``Store.addresses``, once a C-level ``key in values`` finds one.
    Widths are the caller's to check."""
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


@dataclass(frozen=True)
class SearchRun:
    """A query stream's outcome: one entry per query in each column.

    Entry i of a column is key i's matches or count of that name, searched
    after key i - 1: entry 0 of the one-key run that ``search`` returns for
    that query after the one before. ``energized`` is each query's ML
    precharge count; its discharges are ``energized - len(matches)``, so
    they are not stored. ``energizers`` is every query's energizer
    evaluations: N on a gated array, 0 on the all-NOR one. ``len(run)`` is
    the number of queries.

    The columns are the only per-query state that lives for a whole run
    (about 33 bytes a query in ``run_search_stream``'s lists); the keys
    are not kept. ``camsim search`` extends one run's lists by each chunk's
    run. Every count column holds plain ``int``s, and ``matches`` holds
    tuples of ``int`` addresses: a search report writes each entry as its
    ``str``, which is a JSON integer only for an ``int``. Each column is a
    sequence that slices, and ``workload.query_summary`` keeps the run, so
    the run must not change before its report is written.
    """

    energizers: int
    matches: Sequence[tuple[int, ...]]
    energized: Sequence[int]
    ml_en_transitions: Sequence[int]
    sl_toggles: Sequence[int]
    # The per-query columns, in the order ``camsim verify`` checks them: a
    # class attribute, not a field.
    COLUMNS = ("matches", "energized", "ml_en_transitions", "sl_toggles")

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


def _check_keys(
    keys: Sequence[int], n: int, prev_key: Optional[int] = None, start: int = 0
) -> None:
    """Raise ``WidthMismatch`` for the first key that is negative or 2^n or
    more, in the order q0, ``prev_key``, q1, ... in which a query-by-query
    search meets them; ``keys[0]`` is query ``start`` of its stream. A
    C-level ``min`` and ``max`` clear a sound stream. A one-shot iterator
    is read up by ``min``, and the ``ValueError`` of its empty ``max`` is
    raised again with a message that names ``keys``."""
    low = min(keys)
    try:
        high = max(keys)
    except ValueError:
        raise ValueError(
            "keys was read up by its range check: pass a list or another "
            "sequence, not a one-shot iterator"
        ) from None
    if prev_key is not None:
        low, high = min(low, prev_key), max(high, prev_key)
    if low >= 0 and not high >> n:
        return
    named = [(f"query {i}", key) for i, key in enumerate(keys, start)]
    if prev_key is not None:
        named.insert(1, ("previous query", prev_key))
    for name, key in named:
        if key < 0 or key >> n:
            raise WidthMismatch(f"{name}: key {key:#x} does not fit in word_bits {n}")


def run_search_stream(
    array: CamArray,
    keys: Sequence[int],
    prev_key: Optional[int] = None,
    start: int = 0,
) -> SearchRun:
    """Search a sequence of int query keys in order, threading each key as
    the next one's toggle baseline, and count the run in one set of C-level
    passes over the keys, with no per-query record.

    The stream reads each key's matches in O(1) from the store's
    ``addresses``, built (O(N)) on the first stream of any array that
    holds the same ``Store``.

    ``start`` is the position of ``keys[0]`` in the whole stream, of which
    ``keys`` may be a later part searched after ``prev_key``, its last key
    before. ``_check_keys`` raises for a key that is not an n-bit value
    before any search, naming its position in the whole stream, so no run
    is returned. A ``BitWord`` in place of a key is a ``TypeError``. A
    one-shot iterator in place of the sequence is a ``ValueError`` that
    says to pass a list. An empty sequence gives an empty run, whatever
    ``prev_key`` is."""
    if not keys:
        return SearchRun(array._energizers, [], [], [], [])
    n = array.config.word_bits
    _check_keys(keys, n, prev_key, start)
    shift, runs = array._shift, array._runs
    if prev_key is None:
        (prev_bucket, prev_lines), sl_first = array._idle, n
    else:
        prev_bucket = prev_key >> shift
        prev_lines = runs[prev_bucket]
        sl_first = (keys[0] ^ prev_key).bit_count()
    buckets = [*map(shift.__rrshift__, keys)]
    energized = [*map(runs.__getitem__, buckets)]
    # The gate's rule: no transition when the bucket stays, else every line
    # of both buckets changes its ML_EN. A bool times an int is an int.
    ml_en = [*map(
        mul,
        map(ne, buckets, chain((prev_bucket,), buckets)),
        map(add, energized, chain((prev_lines,), energized)),
    )]
    sl = [sl_first, *map(int.bit_count, map(xor, keys[1:], keys))]
    get = array.values.addresses.get
    return SearchRun(
        array._energizers, [*map(get, keys, repeat(()))], energized, ml_en, sl
    )


def search(
    array: CamArray, query: BitWord, prev_query: Optional[BitWord] = None
) -> SearchRun:
    """Run the two-phase protocol for one query against every word: the
    stream of ``query``'s key after ``prev_query``'s, a run of length 1.

    ``prev_query`` is the previously driven search word; columns that changed
    count one searchline toggle each, and ML_EN charge/discharge transitions
    are taken against the levels that query produced. The first search after
    construction (prev_query None) toggles all n columns and charges ML_EN
    from low. The query's width is checked first, then the previous one's.

    Each call is one stream, so search many queries with one
    ``run_search_stream``.
    """
    n = array.config.word_bits
    if query.width != n:
        raise WidthMismatch(f"query width {query.width} != word_bits {n}")
    if prev_query is None:
        return run_search_stream(array, (query.value,))
    if prev_query.width != n:
        raise WidthMismatch(f"previous query width {prev_query.width} != word_bits {n}")
    return run_search_stream(array, (query.value,), prev_query.value)
