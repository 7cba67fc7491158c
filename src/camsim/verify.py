"""Oracle-equivalence harness: the search protocol against a linear scan.

Two tiers. The exhaustive tier walks small geometries through every query
against structured and seeded stores (all single-word pairs, full tables,
shared-prefix stores, duplicates). The randomized tier hammers the full
256 x 144 geometry with a mix of uniform queries, planted copies, and
near-miss single-bit corruptions, which is where a wrong prefix gate or
suffix scan actually shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, Optional, Sequence

from .array import Variant, new_array, oracle_search, search
from .core import BitWord, CamConfig
from .draws import draw_bits, draw_pick, draw_unit

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


def _check_store(
    config: CamConfig,
    words: Sequence[BitWord],
    queries: Iterable[BitWord],
    variant: Variant,
    fault: bool,
    context: str,
) -> VerifyOutcome:
    arr = new_array(config, variant, words)
    if fault:
        arr = dc_replace(arr, fault_flip_ml_en=True)
    cases = 0
    prev = None
    for q in queries:
        got = search(arr, q, prev).matches
        prev = q
        expected = oracle_search(words, q)
        cases += 1
        if got != expected:
            return VerifyOutcome(
                cases, Counterexample(tuple(words), q, expected, got, context)
            )
    return VerifyOutcome(cases, None)


def _all_words(width: int) -> list[BitWord]:
    return [BitWord(width, v) for v in range(1 << width)]


def verify_exhaustive(seed: int = 0, fault: bool = False) -> VerifyOutcome:
    """Small-geometry sweep: n = 4..6, k = 2..3, stores up to 32 words,
    every possible query against every store. Checks both variants."""
    total = 0
    for n in (4, 5, 6):
        universe = _all_words(n)
        for k in (2, 3):
            cfg = CamConfig(num_words=1, word_bits=n, mle_bits=k, seed=seed)
            for variant in (Variant.SELECTIVE, Variant.BASELINE_NOR):
                ctx = f"n={n} k={k} {variant.value}"
                # every (stored word, query) pair at N=1
                for w in universe:
                    out = _check_store(
                        cfg, [w], universe, variant, fault, f"{ctx} single-word"
                    )
                    total += out.cases
                    if not out.ok:
                        return VerifyOutcome(total, out.counterexample)
                stores = []
                # full table (capped at 32 words), all queries hit something
                stores.append(universe[: min(len(universe), 32)])
                # every word shares the same k-bit prefix; worst case gating
                shared = [w for w in universe if w.prefix_int(k) == 1][:8]
                stores.append(shared)
                # duplicates must both report
                stores.append([universe[3], universe[5], universe[3], universe[0]])
                # seeded random stores of assorted sizes
                for j, size in enumerate((5, 17, 32)):
                    stores.append(
                        [
                            BitWord(n, draw_bits(_TAG_STORE, seed, n * 1000 + k * 100 + j * 10 + i, n))
                            for i in range(size)
                        ]
                    )
                for words in stores:
                    cfg_n = CamConfig(
                        num_words=len(words), word_bits=n, mle_bits=k, seed=seed
                    )
                    out = _check_store(
                        cfg_n, words, universe, variant, fault, f"{ctx} store"
                    )
                    total += out.cases
                    if not out.ok:
                        return VerifyOutcome(total, out.counterexample)
    return VerifyOutcome(total, None)


def verify_randomized(
    config: CamConfig,
    trials: int,
    seed: int = 0,
    fault: bool = False,
    variant: Variant = Variant.SELECTIVE,
) -> VerifyOutcome:
    """Randomized trials at full geometry. Each trial draws its query from
    (seed, trial index): 60% uniform, 30% an exact copy of a stored word,
    10% a stored word with one flipped bit."""
    from .workload import gen_words

    words = gen_words(config.num_words, config.word_bits, config.seed)
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
    return _check_store(config, words, queries, variant, fault, "randomized")
