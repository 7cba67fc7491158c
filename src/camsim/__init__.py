"""Behavioral simulator of a prefix-gated match-line CAM.

An N x n content-addressable array whose per-word match lines precharge only
when the first k search bits match a word's stored prefix, compared against
an all-NOR baseline, with switching-activity energy accounting and an
abstract series-device delay model on top.
"""

from .array import (
    CamArray,
    EventTotals,
    SearchRun,
    Store,
    Variant,
    new_array,
    oracle_search,
    run_search_stream,
    search,
    sum_event_totals,
)
from .cells import (
    CellKind,
    CellState,
    cell_write,
    driver_select,
    nor_cell_pulls_down,
    xnor_cell_eval,
    xor_cell_eval,
)
from .core import (
    MAX_MLE_BITS,
    MIN_MLE_BITS,
    CamConfig,
    DriverMode,
    Level,
    parse_word,
    word_text,
)
from .energy import (
    ENERGY_UNITS_NOTE,
    EnergyModel,
    EventClass,
    SweepRow,
    aggregate,
    energy_metric,
    event_energy,
    search_delay,
    series_depth,
    sweep_argmin,
    sweep_mle_bits,
    totals_energy,
)
from .errors import (
    BadDigit,
    CamError,
    EmptyStore,
    InvalidConfig,
    PrefixTooShort,
    WidthMismatch,
    WriteInSearchMode,
    ZeroSearches,
)
from .mle import MleTrace, expected_energized_fraction, mle_eval
from .trace import WordTrace, WordTransitions, word_traces
from .verify import Counterexample, VerifyOutcome, verify_exhaustive, verify_randomized
from .workload import (
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
    load_words,
    write_report,
)

__version__ = "0.1.0"
