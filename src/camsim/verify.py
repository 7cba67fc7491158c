"""Oracle-equivalence harness: the search protocol against a linear scan.

Two tiers. The exhaustive tier walks small geometries through every query
against structured and seeded stores (all single-word pairs, full tables,
shared-prefix stores, duplicates). The randomized tier hammers the full
256 x 144 geometry with a mix of uniform queries, planted copies, and
near-miss single-bit corruptions, which is where a wrong prefix gate or
suffix scan actually shows up. Both tiers search every query on the gated
and on the all-NOR array of a store, against one oracle scan, so a
``VerifyOutcome.cases`` counts two searches per query. The oracle scans
the store's values as plain ints, listed once per store; widths are checked
before a scan, not inside it.

With ``fault`` set, the harness checks a mutant instead of the sound build:
one whose energizer inverts every decision, so it must report a
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .array import CamArray, Variant, new_array, oracle_search, search
from .core import BitWord, CamConfig
from .draws import draw_bits, draw_pick, draw_unit
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


def _flipped_gate_matches(arr: CamArray, query: BitWord) -> tuple[int, ...]:
    """The matches of ``arr`` built with every energizer decision inverted:
    the words whose stored prefix differs from the query's and whose suffix
    equals the query's. The baseline has no energizer to invert."""
    if arr.variant is Variant.BASELINE_NOR:
        return search(arr, query).matches
    n, k = arr.config.word_bits, arr.config.mle_bits
    shift = n - k
    suffix = query.value & ((1 << shift) - 1)
    matches: list[int] = []
    for p in range(1 << k):
        if p != query.value >> shift:
            matches += search(arr, BitWord(n, p << shift | suffix)).matches
    return tuple(sorted(matches))


def _check_store(
    config: CamConfig,
    words: Sequence[BitWord],
    queries: Iterable[BitWord],
    fault: bool,
    context: str,
) -> VerifyOutcome:
    """Search each query on the store's gated array, then on its all-NOR
    array, and compare both with one oracle scan of the stored values.
    ``new_array`` rejects a stored word of the wrong width before the first
    scan, and each query's width is checked before it is searched, so the
    oracle compares plain ints. ``context`` is a format string whose one
    field takes the variant of a failing search."""
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
            got = _flipped_gate_matches(arr, q) if fault else search(arr, q, prev).matches
            if got != expected:
                ctx = context.format(arr.variant.value)
                return VerifyOutcome(cases, Counterexample(words, q, expected, got, ctx))
        prev = q
    return VerifyOutcome(cases, None)


def _all_words(width: int) -> list[BitWord]:
    return [BitWord(width, v) for v in range(1 << width)]


def verify_exhaustive(seed: int = 0, fault: bool = False) -> VerifyOutcome:
    """Small-geometry sweep: n = 4..6, k = 2..3, stores up to 32 words,
    every possible query against every store, on both variants."""
    total = 0
    for n in (4, 5, 6):
        universe = _all_words(n)
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
                stores.append(("store", [
                    BitWord(n, draw_bits(_TAG_STORE, seed, base + i, n))
                    for i in range(size)
                ]))
            for kind, words in stores:
                cfg = CamConfig(len(words), n, k, seed=seed)
                ctx = f"n={n} k={k} {{}} {kind}"
                out = _check_store(cfg, words, universe, fault, ctx)
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
    """Randomized trials at full geometry on both variants, so ``cases`` is
    2 x ``trials`` when every search passes. Each trial draws its query from
    (seed, trial index): 60% uniform, 30% an exact copy of a stored word,
    10% a stored word with one flipped bit."""
    from .workload import gen_words

    if trials < 0:
        raise InvalidConfig(f"trials must be >= 0, got {trials}")
    # One copy of the store: _check_store keeps a tuple as it is.
    words = tuple(gen_words(config.num_words, config.word_bits, config.seed))
    n = config.word_bits

    def trial(i: int) -> BitWord:
        style = draw_unit(_TAG_STYLE, seed, i)
        if style < 0.6:
            return BitWord(n, draw_bits(_TAG_TRIAL, seed, i, n))
        base = words[draw_pick(_TAG_TRIAL, seed, i, len(words))]
        if style < 0.9:
            return base
        pos = draw_pick(_TAG_FLIP, seed, i, n)
        return BitWord(n, base.value ^ (1 << (n - 1 - pos)))

    queries = (trial(i) for i in range(trials))
    return _check_store(config, words, queries, fault, "randomized {}")
