"""The full N x n CAM array: storage, write path, the two-phase search
protocol, and an all-NOR baseline for comparison.

A search runs in two phases per word. Precharge phase: in the gated variant
the energizer evaluates the k-bit prefixes and the match line charges only
when ML_EN is high; the baseline charges every match line unconditionally.
Evaluation phase: any mismatching NOR cell on a precharged line pulls it low
(one discharge event, however many cells conduct); a line that was never
precharged stays low for free.

Arrays are immutable values; ``write_word`` returns a new array. ``search``
is a pure function of (array, query, previous query), the previous query
being the explicit context for searchline-toggle and ML_EN-transition
counting, so concurrent searches are deterministic under any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True)
class EventTotals:
    """Per-search (or per-run, when summed) switching-event counts.

    ``sl_toggles`` counts toggled searchline columns once each; the energy
    model scales by the number of words sharing the column. ML_EN transition
    energy is carried by the evaluation class, so ``ml_en_transitions`` is
    reported for activity analysis only.
    """

    ml_en_transitions: int = 0
    ml_precharges: int = 0
    ml_discharges: int = 0
    sl_toggles: int = 0
    mle_evaluations: int = 0

    def __add__(self, other: "EventTotals") -> "EventTotals":
        return EventTotals(
            self.ml_en_transitions + other.ml_en_transitions,
            self.ml_precharges + other.ml_precharges,
            self.ml_discharges + other.ml_discharges,
            self.sl_toggles + other.sl_toggles,
            self.mle_evaluations + other.mle_evaluations,
        )

    def to_dict(self) -> dict[str, int]:
        # A literal, not dataclasses.asdict: this runs once per query row and
        # asdict's recursive copy is about 30x slower.
        return {
            "ml_en_transitions": self.ml_en_transitions,
            "ml_precharges": self.ml_precharges,
            "ml_discharges": self.ml_discharges,
            "sl_toggles": self.sl_toggles,
            "mle_evaluations": self.mle_evaluations,
        }


@dataclass(frozen=True)
class CamArray:
    """Stored words plus the derived packed views the search path works on.

    ``fault_flip_ml_en`` inverts every energizer decision; it exists so the
    verification harness can prove it detects a corrupted build.
    """

    config: CamConfig
    words: tuple[BitWord, ...]
    variant: Variant = Variant.SELECTIVE
    mode: DriverMode = DriverMode.SEARCH
    fault_flip_ml_en: bool = False
    _values: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _prefixes: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

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
        shift = cfg.word_bits - cfg.mle_bits
        values = tuple(w.value for w in self.words)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_prefixes", tuple(v >> shift for v in values))

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
    return tuple(addr for addr, w in enumerate(words) if w.value == query.value)


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


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search: matches, energization, and event tallies.

    ``energy_total`` and ``delay`` stay None until the energy model fills
    them. ``traces`` is rebuilt on demand from the immutable inputs, so bulk
    runs that only read matches and totals skip the per-word objects.
    """

    array: CamArray = field(repr=False)
    query: BitWord
    prev_query: Optional[BitWord]
    matches: tuple[int, ...]
    energized_count: int
    event_totals: EventTotals
    energy_total: Optional[float] = None
    delay: Optional[float] = None

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
    cfg = array.config
    n, k, num = cfg.word_bits, cfg.mle_bits, cfg.num_words
    qv = query.value
    sl_toggles = n if prev_query is None else (qv ^ prev_query.value).bit_count()

    if array.variant is Variant.BASELINE_NOR:
        matches = [a for a, v in enumerate(array._values) if v == qv]
        totals = EventTotals(
            ml_en_transitions=0,
            ml_precharges=num,
            ml_discharges=num - len(matches),
            sl_toggles=sl_toggles,
            mle_evaluations=0,
        )
        return SearchReport(
            array, query, prev_query, tuple(matches), num, totals
        )

    qp = qv >> (n - k)
    prefixes = array._prefixes
    flip = array.fault_flip_ml_en
    if flip:
        energized = [a for a, p in enumerate(prefixes) if p != qp]
    else:
        energized = [a for a, p in enumerate(prefixes) if p == qp]

    suffix_mask = (1 << (n - k)) - 1
    values = array._values
    matches = []
    discharges = 0
    for a in energized:
        if (values[a] ^ qv) & suffix_mask:
            discharges += 1
        else:
            matches.append(a)

    if prev_query is None:
        prev_set = frozenset()
    else:
        pp = prev_query.value >> (n - k)
        if flip:
            prev_set = {a for a, p in enumerate(prefixes) if p != pp}
        else:
            prev_set = {a for a, p in enumerate(prefixes) if p == pp}
    overlap = sum(1 for a in energized if a in prev_set)
    en_charges = len(energized) - overlap
    en_discharges = len(prev_set) - overlap

    totals = EventTotals(
        ml_en_transitions=en_charges + en_discharges,
        ml_precharges=len(energized),
        ml_discharges=discharges,
        sl_toggles=sl_toggles,
        mle_evaluations=num,
    )
    return SearchReport(
        array, query, prev_query, tuple(matches), len(energized), totals
    )


def _build_traces(
    array: CamArray, query: BitWord, prev_query: Optional[BitWord]
) -> tuple[WordTrace, ...]:
    cfg = array.config
    n, k = cfg.word_bits, cfg.mle_bits
    qv = query.value
    sl = n if prev_query is None else (qv ^ prev_query.value).bit_count()
    out = []

    if array.variant is Variant.BASELINE_NOR:
        for addr, wv in enumerate(array._values):
            diff = wv ^ qv
            if diff:
                out.append(
                    WordTrace(
                        addr, (), Level.HIGH, True, Level.LOW,
                        n - diff.bit_length(),
                        WordTransitions(0, 0, 1, 1, sl),
                    )
                )
            else:
                out.append(
                    WordTrace(
                        addr, (), Level.HIGH, True, Level.HIGH, None,
                        WordTransitions(0, 0, 1, 0, sl),
                    )
                )
        return tuple(out)

    qp = qv >> (n - k)
    pp = None if prev_query is None else prev_query.value >> (n - k)
    table = _mnode_table(k)
    flip = array.fault_flip_ml_en
    suffix_mask = (1 << (n - k)) - 1
    for addr, (wv, wp) in enumerate(zip(array._values, array._prefixes)):
        m_nodes = table[wp ^ qp]
        en_now = (wp == qp) != flip
        en_prev = False if pp is None else ((wp == pp) != flip)
        discharging_bit = None
        discharged = False
        if en_now:
            diff = (wv ^ qv) & suffix_mask
            if diff:
                ml_final = Level.LOW
                discharging_bit = n - diff.bit_length()
                discharged = True
            else:
                ml_final = Level.HIGH
        else:
            ml_final = Level.LOW
        out.append(
            WordTrace(
                addr,
                m_nodes,
                Level.from_bit(en_now),
                en_now,
                ml_final,
                discharging_bit,
                WordTransitions(
                    ml_en_charges=int(en_now and not en_prev),
                    ml_en_discharges=int(en_prev and not en_now),
                    ml_charges=int(en_now),
                    ml_discharges=int(discharged),
                    sl_toggles=sl,
                ),
            )
        )
    return tuple(out)


def sum_event_totals(reports: Iterable[SearchReport]) -> EventTotals:
    total = EventTotals()
    for r in reports:
        total = total + r.event_totals
    return total


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
