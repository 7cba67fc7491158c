"""The k-bit match-line energizer: gates per-word precharge on a prefix match.

One XNOR node (M0) sources charge; the k-1 XOR nodes drive series devices
that isolate or pass that charge to ML_EN. ML_EN therefore goes high exactly
when all k prefix bits match, and a supply path through conducting devices to
a low M0 resolves to low, never floating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cells import xnor_cell_eval, xor_cell_eval
from .core import MIN_MLE_BITS, Level
from .errors import PrefixTooShort, WidthMismatch


@dataclass(frozen=True)
class MleTrace:
    """Node levels inside the energizer for one word, one search.

    ``m_nodes[0]`` is M0 (high on first-bit match); ``m_nodes[i]`` for i >= 1
    is high on mismatch of bit i. ``ml_en`` is high iff M0 is high and every
    other node is low.
    """

    m_nodes: tuple[Level, ...]
    ml_en: Level


def mle_eval(stored_prefix: Sequence[int], search_prefix: Sequence[int]) -> MleTrace:
    """Evaluate the energizer over the first k bits of stored and search data.

    Equivalent to a k-bit prefix match: ML_EN goes high exactly when the
    prefixes agree bit for bit.
    """
    k = len(stored_prefix)
    if len(search_prefix) != k:
        raise WidthMismatch(
            f"prefix lengths differ: {k} vs {len(search_prefix)}"
        )
    if k < MIN_MLE_BITS:
        raise PrefixTooShort(
            f"the energizer needs at least {MIN_MLE_BITS} bits, got {k}"
        )
    nodes = [xnor_cell_eval(stored_prefix[0], search_prefix[0])]
    nodes += map(xor_cell_eval, stored_prefix[1:], search_prefix[1:])
    ml_en = Level.from_bit(
        nodes[0] is Level.HIGH and all(n is Level.LOW for n in nodes[1:])
    )
    return MleTrace(tuple(nodes), ml_en)


def expected_energized_fraction(k: int) -> float:
    """Probability that a uniformly random stored prefix matches a uniformly
    random search prefix: 2**-k. The complement is the fraction of match
    lines whose precharge is avoided."""
    if k < MIN_MLE_BITS:
        raise PrefixTooShort(
            f"the energizer needs at least {MIN_MLE_BITS} bits, got {k}"
        )
    return 2.0 ** -k
