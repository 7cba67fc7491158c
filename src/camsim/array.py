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
order (``values``, a ``Store``), from which matches are read by value.
A gated array also keeps its gate as a prefix histogram: a key's bucket
is its k-bit prefix ``key >> (n - k)``, and ``_runs[b]`` counts
the lines whose ML_EN is high for bucket b, the words stored with prefix
b. When the bucket repeats no ML_EN changes; otherwise every line of both
buckets changes its ML_EN, since two buckets share no line. The all-NOR
array has no gate: it precharges every line on every search and has no
ML_EN to change, so its energized and ML_EN columns are constants and it
keeps no histogram (``_runs`` is empty). The engine branches once, on the
variant. This module imports nothing of the truth-level
per-word model (``trace``, ``mle``, ``cells``), which the tests check
every count against: ``trace.word_traces`` rebuilds a search's per-word
levels from the array and its queries.

Stored words are ints from the generator to the engine: ``gen_words`` and
``load_words`` return a ``Store``, a tuple of n-bit ints that carries its
width and range-checks its values once, when it is built. Arrays are
immutable values, built whole: ``new_array`` checks that the store's
width is the config's and keeps the ``Store`` itself. There is no
array-level write, and a changed store is a new array. Query keys are
n-bit ints too. ``run_search_stream`` is the one search engine. It
applies the rules above to a sequence of int query keys, in a few passes
over the keys (C-level maps, and comprehensions for the gate's buckets and
its ML_EN column), and returns one column per count (``SearchRun``)
instead of a record per query. It is a pure function of (array, keys,
previous key), the previous key being the explicit context for
searchline-toggle and ML_EN-transition counting, so concurrent searches
are deterministic under any scheduling.
``search`` is the stream of one key, after an optional previous one: a
one-key ``SearchRun``, the one record of a search, which holds only what
the search computes, never the array or the queries.

A stream reads every key's matches from a dict from stored value to
ascending addresses in one C-level ``map``, O(1) per query. The dict is a
fact of the stored values, not of a gate: an array's ``values`` is a
``Store``, a tuple of the ints that builds the dict (``Store.addresses``,
O(N)) on the first stream of any array over it and keeps it. Arrays made
from one with ``dataclasses.replace(array, variant=...)`` or
``replace(array, config=...)`` keep its ``Store``, so every gate over the
same words reads one dict. It is built lazily, so building an array that
is never searched costs no dict.
Cutting a long stream into chunks is the caller's: every CLI verb draws
and searches its keys ``workload.KEYS_PER_CHUNK`` at a time, each chunk
threaded after the last key of the one before, and folds each chunk's run
into running counts (``camsim search`` also renders its rows) before the
next, so no run's columns outlive their chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import sub, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import CamConfig
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
    """The stored values as n-bit ints, in address order: a tuple that
    carries its ``width`` and keeps the dict from which
    ``run_search_stream`` reads matches, built on first use. Every array
    that holds this ``Store`` shares that dict. Each value is checked to
    fit in ``width`` bits once, when the store is built, by a C-level
    ``min`` and ``max``."""

    def __new__(cls, values: Iterable[int], width: int) -> "Store":
        # Pass a list, not an iterator: CPython resizes a tuple it sizes
        # from an iterator, and the resized blocks pile up on its
        # small-tuple free lists, which peak memory counts (about 50 KB of
        # the ``camsim verify`` peak).
        store = super().__new__(cls, values)
        if min(store, default=0) < 0 or max(store, default=0) >> width:
            raise WidthMismatch(f"a stored value does not fit in word_bits {width}")
        store.width = width
        return store

    def __getnewargs__(self) -> tuple:
        return tuple(self), self.width

    @cached_property
    def addresses(self) -> dict[int, tuple[int, ...]]:
        """Each stored value's addresses, ascending, keyed by the value.
        Most stores hold distinct values, so each value first gets its one
        address, its last; a store with a repeated value then regroups
        only the values whose entry is not their own address, at the
        addresses that hold them. (``collections.Counter`` would find them
        too, but its ``Mapping`` check caches ``Store`` in about 3 KB of
        ABC caches for the life of the process.)"""
        index = {value: (addr,) for addr, value in enumerate(self)}
        if len(index) == len(self):
            return index
        repeated = {v: [] for a, v in enumerate(self) if index[v][0] != a}
        for addr in compress(count(), map(repeated.__contains__, self)):
            repeated[self[addr]].append(addr)
        index.update((value, tuple(addrs)) for value, addrs in repeated.items())
        return index


@dataclass(frozen=True)
class CamArray:
    """Stored values plus the gate the search path works on, set once.

    ``values[a]`` is the n-bit value stored at address a: the store is kept
    once, as ints, in a ``Store`` that ``dataclasses.replace`` passes on to
    the array it makes, so a second gate over the same words shares it and
    its dict of addresses. ``values`` must be a ``Store`` n bits wide; any
    other sequence is a TypeError. ``_runs[b]`` is the number of words
    stored with k-bit prefix b on a gated array, whose lines ML_EN enables
    for a key of bucket b; before the first search no bucket is enabled, as
    ML_EN powers up low. The all-NOR array has no gate, and its ``_runs``
    is empty.
    """

    config: CamConfig
    values: Store
    variant: Variant = Variant.SELECTIVE
    _runs: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        cfg, values = self.config, self.values
        n, size = cfg.word_bits, cfg.num_words
        if not isinstance(values, Store):
            raise TypeError(f"values must be a Store, got {type(values).__name__}")
        if values.width != n:
            raise WidthMismatch(f"stored word width {values.width} != word_bits {n}")
        if len(values) != size:
            raise InvalidConfig(f"expected {size} words, got {len(values)}")
        if self.variant is Variant.SELECTIVE:
            object.__setattr__(self, "_runs", _gate_index(values, n - cfg.mle_bits, n))


def new_array(config: CamConfig, variant: Variant, store: Store) -> CamArray:
    """Build an array that holds ``store``, one value per address, once its
    width is checked against ``config``; the ``Store`` is kept, not
    copied, so the array shares its dict of addresses."""
    return CamArray(config, store, variant)


def oracle_search(values: Sequence[int], key: int) -> tuple[int, ...]:
    """Reference model: a plain linear scan of the stored values, in address
    order, for exact equality with ``key``. It reads no fact of an array,
    not ``Store.addresses``: a C-level ``values.count(key)`` counts the
    hits, and each hit's address is found by a C-level ``values.index``
    that starts just past the one before, so they ascend. Widths are the
    caller's to check."""
    hits = values.count(key)
    if not hits:
        return ()
    at = values.index(key)
    addrs = [at]
    for _ in range(hits - 1):
        at = values.index(key, at + 1)
        addrs.append(at)
    return tuple(addrs)


def _gate_index(values: Sequence[int], shift: int, n: int) -> tuple[int, ...]:
    """``_runs``, a gated array's histogram of its stored n-bit values:
    entry b counts the values whose bucket ``value >> shift`` is b."""
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

    The columns are the only per-query state of a run (about 33 bytes a
    query in ``run_search_stream``'s lists); the keys are not kept. The CLI
    verbs hold one chunk's run at a time. Every count column reads as
    plain ``int``s, and ``matches`` holds tuples of ``int`` addresses: a
    search report writes each entry as its ``str``, which is a JSON
    integer only for an ``int``. ``workload.query_summary`` writes a run's
    rows into the report when it is called and keeps nothing of the run.
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
    the next one's toggle baseline, and count the run in a few passes over
    the keys, with no per-query record: C-level maps, and comprehensions for
    the gate's buckets and its ML_EN column.

    The stream reads each key's matches in O(1) from the store's
    ``addresses``, built (O(N)) on the first stream of any array that
    holds the same ``Store``. On the all-NOR array the energized and ML_EN
    columns are constants, so only the range check, the toggles and the
    matches pass over the keys.

    ``start`` is the position of ``keys[0]`` in the whole stream, of which
    ``keys`` may be a later part searched after ``prev_key``, its last key
    before. ``_check_keys`` raises for a key that is not an n-bit value
    before any search, naming its position in the whole stream, so no run
    is returned. A one-shot iterator in place of the sequence is a
    ``ValueError`` that says to pass a list. An empty sequence gives an
    empty run, whatever ``prev_key`` is."""
    cfg = array.config
    n = cfg.word_bits
    gated = array.variant is Variant.SELECTIVE
    energizers = cfg.num_words if gated else 0
    if not keys:
        return SearchRun(energizers, [], [], [], [])
    _check_keys(keys, n, prev_key, start)
    sl_first = n if prev_key is None else (keys[0] ^ prev_key).bit_count()
    if gated:
        shift, runs = n - cfg.mle_bits, array._runs
        if prev_key is None:  # ML_EN powers up low: no bucket is high
            prev_bucket, prev_lines = None, 0
        else:
            prev_bucket = prev_key >> shift
            prev_lines = runs[prev_bucket]
        buckets = [key >> shift for key in keys]
        energized = [*map(runs.__getitem__, buckets)]
        # The gate's rule: no transition when the bucket stays, else every
        # line of both buckets changes its ML_EN.
        ml_en = [e + pe if b != pb else 0 for b, pb, e, pe in zip(
            buckets, chain((prev_bucket,), buckets),
            energized, chain((prev_lines,), energized),
        )]
    else:
        energized = [cfg.num_words] * len(keys)
        ml_en = [0] * len(keys)
    sl = [sl_first, *map(int.bit_count, map(xor, keys[1:], keys))]
    get = array.values.addresses.get
    return SearchRun(energizers, [*map(get, keys, repeat(()))], energized, ml_en, sl)


def search(
    array: CamArray, key: int, prev_key: Optional[int] = None
) -> SearchRun:
    """Run the two-phase protocol for one query key against every word: the
    stream of ``key`` after ``prev_key``, a run of length 1.

    ``prev_key`` is the previously driven search key; columns that changed
    count one searchline toggle each, and ML_EN charge/discharge transitions
    are taken against the levels that key produced. The first search after
    construction (``prev_key`` None) toggles all n columns and charges ML_EN
    from low. The stream's range check raises ``WidthMismatch`` for a key
    that is not an n-bit value, the key first (``query 0: ...``), then the
    previous one (``previous query: ...``).

    Each call is one stream, so search many queries with one
    ``run_search_stream``.
    """
    return run_search_stream(array, (key,), prev_key)
