"""The full N x n CAM array: storage, write path, the two-phase search
protocol, and an all-NOR baseline for comparison.

A search runs in two phases per word. Precharge phase: in the gated variant
the energizer evaluates the k-bit prefixes and the match line charges only
when ML_EN is high; the baseline charges every match line unconditionally.
Evaluation phase: any mismatching NOR cell on a precharged line pulls it low
(one discharge event, however many cells conduct); a line that was never
precharged stays low for free.

The gate has one home: ``_energized`` says which lines have ML_EN high, from
facts each array sets once (the baseline is the same array with no
energizer), and both ``search`` and the per-word trace path read it.

The gate is indexed, as selective precharge is in hardware: a gated array
keeps its addresses stably sorted by stored prefix (``_order``) and the
2^k + 1 offsets where each prefix's bucket starts in that order
(``_starts``). A search slices its bucket out of ``_order``, ascending
because the sort is stable, so its cost is O(bucket), not O(N); the
ML_EN-transition count reads two bucket sizes off ``_starts``.

Arrays are immutable values; ``write_word`` returns a new array. ``search``
is a pure function of (array, query, previous query), the previous query
being the explicit context for searchline-toggle and ML_EN-transition
counting, so concurrent searches are deterministic under any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import BitWord, CamConfig, DriverMode, Level, WordTrace, WordTransitions
from .errors import (
    AddressOutOfRange,
    InvalidConfig,
    SearchInWriteMode,
    WidthMismatch,
)
from .mle import mle_eval


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

    A tuple, so one is built per search at tuple cost: ``+`` adds field by
    field, ``*`` repeats as it does for any tuple, and a record equals the
    plain tuple of its counts.
    """

    ml_en_transitions: int = 0
    ml_precharges: int = 0
    ml_discharges: int = 0
    sl_toggles: int = 0
    mle_evaluations: int = 0

    def __add__(self, other: "EventTotals") -> "EventTotals":  # type: ignore[override]
        return EventTotals(
            self.ml_en_transitions + other.ml_en_transitions,
            self.ml_precharges + other.ml_precharges,
            self.ml_discharges + other.ml_discharges,
            self.sl_toggles + other.sl_toggles,
            self.mle_evaluations + other.mle_evaluations,
        )

    def to_dict(self) -> dict[str, int]:
        # A literal, not _asdict: this runs once per query row and _asdict's
        # zip over _fields takes about twice as long.
        return {
            "ml_en_transitions": self.ml_en_transitions,
            "ml_precharges": self.ml_precharges,
            "ml_discharges": self.ml_discharges,
            "sl_toggles": self.sl_toggles,
            "mle_evaluations": self.mle_evaluations,
        }


def _derived(default):
    return field(init=False, repr=False, compare=False, default=default)


@dataclass(frozen=True)
class CamArray:
    """Stored words plus the gate facts the search path works on, set once.

    The baseline has no energizer (``_energizers`` is 0). A line with ML_EN
    high matches when its stored value ``_values[a]`` equals the query's.

    A gated array also carries the gate index: ``_order`` lists the addresses
    stably sorted by stored prefix, and prefix p's bucket is
    ``_order[_starts[p]:_starts[p + 1]]``. The baseline needs neither.
    """

    config: CamConfig
    words: tuple[BitWord, ...]
    variant: Variant = Variant.SELECTIVE
    mode: DriverMode = DriverMode.SEARCH
    _values: tuple[int, ...] = _derived(())
    _energizers: int = _derived(0)
    _order: tuple[int, ...] = _derived(())
    _starts: tuple[int, ...] = _derived(())

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
        n, k = cfg.word_bits, cfg.mle_bits
        gated = self.variant is Variant.SELECTIVE
        # Every fact is a tuple copied from a list, never from an iterator:
        # CPython resizes a tuple it sizes from an iterator, and the resized
        # blocks pile up on its small-tuple free lists, which peak memory
        # counts (about 50 KB of the ``camsim verify`` peak).
        values = tuple([w.value for w in self.words])
        set_fact = object.__setattr__
        set_fact(self, "_values", values)
        set_fact(self, "_energizers", cfg.num_words if gated else 0)
        if gated:
            order, starts = _gate_index([v >> (n - k) for v in values], k)
            set_fact(self, "_order", order)
            set_fact(self, "_starts", starts)

    def with_mode(self, mode: DriverMode) -> "CamArray":
        return replace(self, mode=mode)


def new_array(
    config: CamConfig,
    variant: Variant = Variant.SELECTIVE,
    words: Optional[Sequence[BitWord]] = None,
) -> CamArray:
    """Build an array in search mode. Without ``words`` every latch powers up
    to zero, the canonical initial state."""
    if words is None:
        zero = BitWord(config.word_bits, 0)
        words = (zero,) * config.num_words
    return CamArray(config, tuple(words), variant)


def write_word(array: CamArray, addr: int, word: BitWord) -> CamArray:
    """One full write cycle: drive the write control, store the word through
    the cell write path, release back to search mode.

    The energizer output is ambiguous while the write control is asserted, so
    no search events are counted here.
    """
    cfg = array.config
    if not 0 <= addr < cfg.num_words:
        raise AddressOutOfRange(
            f"address {addr} outside [0, {cfg.num_words})"
        )
    if word.width != cfg.word_bits:
        raise WidthMismatch(
            f"word width {word.width} != word_bits {cfg.word_bits}"
        )
    words = list(array.words)
    words[addr] = word
    return replace(array, words=tuple(words), mode=DriverMode.SEARCH)


def oracle_search(words: Sequence[BitWord], query: BitWord) -> tuple[int, ...]:
    """Reference model: plain linear scan for exact equality."""
    for w in words:
        if w.width != query.width:
            raise WidthMismatch(
                f"stored word width {w.width} != query width {query.width}"
            )
    return tuple([addr for addr, w in enumerate(words) if w.value == query.value])


def _gate_index(
    prefixes: Sequence[int], k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_order`` and ``_starts`` for the stored prefixes: a counting sort,
    stable, and cheaper here than sorted() with a key. The buckets go before
    the tuple copy of the order is made, so they do not add to peak memory."""
    buckets: list[list[int]] = [[] for _ in range(1 << k)]
    for addr, p in enumerate(prefixes):
        buckets[p].append(addr)
    starts = tuple([*accumulate(map(len, buckets), initial=0)])
    order = [a for b in buckets for a in b]
    del buckets
    return tuple(order), starts


@lru_cache(maxsize=None)
def _mnode_table(k: int) -> tuple[tuple[Level, ...], ...]:
    # Index is the XOR of stored and search prefixes (bit 0 most significant).
    # Each node compares one stored bit with one search bit, so storing the
    # XOR against an all-zero search prefix gives the same levels.
    zeros = (0,) * k
    return tuple(
        mle_eval([(x >> (k - 1 - i)) & 1 for i in range(k)], zeros).m_nodes
        for x in range(1 << k)
    )


class SearchReport(NamedTuple):
    """Outcome of one search: matches, energization, and event tallies.

    ``energy_total`` and ``delay`` stay None until the energy model fills
    them. ``traces`` is rebuilt on demand from the immutable inputs, so bulk
    runs that only read matches and totals skip the per-word objects. A
    tuple, like ``EventTotals``; the repr leaves out ``array``.
    """

    array: CamArray
    query: BitWord
    prev_query: Optional[BitWord]
    matches: tuple[int, ...]
    energized_count: int
    event_totals: EventTotals
    energy_total: Optional[float] = None
    delay: Optional[float] = None

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
        return _build_traces(self.array, self.query, self.prev_query)


def _check_query(array: CamArray, query: BitWord, prev_query: Optional[BitWord]) -> None:
    if array.mode is DriverMode.WRITE:
        raise SearchInWriteMode("cannot search while the write driver is enabled")
    n = array.config.word_bits
    if query.width != n:
        raise WidthMismatch(f"query width {query.width} != word_bits {n}")
    if prev_query is not None and prev_query.width != n:
        raise WidthMismatch(
            f"previous query width {prev_query.width} != word_bits {n}"
        )


def _drive(
    array: CamArray, query: BitWord, prev_query: Optional[BitWord]
) -> tuple[int, Optional[int], int]:
    """The search prefix, the previous one (None before the first search) and
    the number of searchline columns this search toggles."""
    cfg = array.config
    shift = cfg.word_bits - cfg.mle_bits
    if prev_query is None:
        return query.value >> shift, None, cfg.word_bits
    pv = prev_query.value
    return query.value >> shift, pv >> shift, (query.value ^ pv).bit_count()


def _energized(array: CamArray, prefix: Optional[int]) -> Sequence[int]:
    """Addresses whose ML_EN is high for search prefix ``prefix``, or before
    the first search when it is None. Without an energizer every line is
    always enabled; a gated line is enabled when its stored prefix equals
    the search prefix."""
    if not array._energizers:
        return range(array.config.num_words)
    if prefix is None:
        return ()
    starts = array._starts
    return array._order[starts[prefix]:starts[prefix + 1]]


def _ml_en_transitions(array: CamArray, qp: int, pp: Optional[int]) -> int:
    """Lines whose ML_EN level changes from previous prefix ``pp`` to ``qp``.
    Before the first search every ML_EN is low, so ``qp``'s bucket charges;
    two different prefixes select disjoint buckets, so exactly the words of
    both buckets change."""
    if not array._energizers or pp == qp:
        return 0
    starts = array._starts
    charged = starts[qp + 1] - starts[qp]
    return charged if pp is None else charged + starts[pp + 1] - starts[pp]


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
    _check_query(array, query, prev_query)
    qp, pp, sl_toggles = _drive(array, query, prev_query)
    energized = _energized(array, qp)
    key = query.value
    values = array._values
    matches = tuple([a for a in energized if values[a] == key])
    precharged = len(energized)
    totals = EventTotals(
        _ml_en_transitions(array, qp, pp),
        precharged,
        precharged - len(matches),
        sl_toggles,
        array._energizers,
    )
    return SearchReport(array, query, prev_query, matches, precharged, totals)


def _build_traces(
    array: CamArray, query: BitWord, prev_query: Optional[BitWord]
) -> tuple[WordTrace, ...]:
    n, k = array.config.word_bits, array.config.mle_bits
    qp, pp, sl = _drive(array, query, prev_query)
    now = set(_energized(array, qp))
    before = set(_energized(array, pp))
    mnodes = _mnode_table(k) if array._energizers else ((),) * (1 << k)
    out = []
    for addr, v in enumerate(array._values):
        en_now, en_prev = addr in now, addr in before
        diff = v ^ query.value if en_now else 0
        out.append(
            WordTrace(
                addr,
                mnodes[(v >> (n - k)) ^ qp],
                Level.from_bit(en_now),
                en_now,
                Level.from_bit(en_now and not diff),
                n - diff.bit_length() if diff else None,
                WordTransitions(
                    ml_en_charges=int(en_now and not en_prev),
                    ml_en_discharges=int(en_prev and not en_now),
                    ml_charges=int(en_now),
                    ml_discharges=int(diff != 0),
                    sl_toggles=sl,
                ),
            )
        )
    return tuple(out)


def sum_event_totals(reports: Iterable[SearchReport]) -> EventTotals:
    """The reports' event counts summed field by field, with no
    intermediate ``EventTotals``; no reports sum to ``EventTotals()``."""
    return EventTotals(*map(sum, zip(*[r.event_totals for r in reports])))


def run_search_stream(
    array: CamArray,
    queries: Iterable[BitWord],
    prev_query: Optional[BitWord] = None,
) -> list[SearchReport]:
    """Search a query stream in order, threading each query as the next
    one's toggle baseline."""
    out = []
    prev = prev_query
    for q in queries:
        out.append(search(array, q, prev))
        prev = q
    return out
