"""Shared test helpers: the small stores the search tests sweep, the check
of a one-key run against its per-word traces, and the run of int query
keys that the oracles expect: ``oracle_search`` for the matches and the
verifier's count oracle for the counts."""

from itertools import chain

from camsim import (
    EventTotals,
    Level,
    SearchRun,
    Store,
    Variant,
    oracle_search,
    search,
    sum_event_totals,
    word_traces,
)
from camsim.verify import _expected_run, _key_columns


# 13 five-bit words: every bucket occupied at k = 2 and 3, and 7 stored twice
FIVE_BIT_STORE = Store([7 * i % 32 for i in range(12)] + [7], 5)


def assert_traces_explain(arr, query, prev=None, run=None):
    """The event-level check: the per-word traces of a search of ``query``
    after ``prev`` sum to its event totals field by field, and give its
    matches and energized count. ``run`` is the search's one-key run, or
    None for ``search``'s. Returns the run and the traces."""
    if run is None:
        run = search(arr, query, prev)
    traces = word_traces(arr, query, prev)
    sl = {t.transitions.sl_toggles for t in traces}
    assert len(sl) == 1  # the searchlines are shared by every word
    per_word = [t.transitions for t in traces]
    summed = EventTotals(
        sum(w.ml_en_charges + w.ml_en_discharges for w in per_word),
        sum(w.ml_charges for w in per_word),
        sum(w.ml_discharges for w in per_word),
        sl.pop(),
        sum(1 for t in traces if t.m_nodes),
    )
    assert len(run) == 1
    assert summed._asdict() == sum_event_totals(run)._asdict()
    assert run.matches == [tuple(t.addr for t in traces if t.ml_final is Level.HIGH)]
    assert run.energized == [sum(t.ml_precharged for t in traces)]
    return run, traces


def threaded(keys, prev_key=None):
    """Each query key paired with the key before it (``prev_key`` for the
    first, or None), as ``run_search_stream`` threads the stream."""
    return zip(keys, chain((prev_key,), keys))


def oracle_run(arr, keys, prev_key=None):
    """The ``SearchRun`` that the oracles give for the query keys, searched
    in order after ``prev_key``: ``oracle_search``'s scan of the stored
    values for the matches, and the count oracle of ``camsim verify``
    (``_key_columns`` and ``_expected_run``, which read the stored
    prefixes, not the array's gate) for the counts."""
    n, k = arr.config.word_bits, arr.config.mle_bits
    keys, values = list(keys), arr.values
    occ = [0] * (1 << k)
    for v in values:
        occ[v >> (n - k)] += 1
    matches = [oracle_search(values, key) for key in keys]
    gated = arr.variant is Variant.SELECTIVE
    # an empty stream has no key columns, whatever ``prev_key`` is
    key_columns = _key_columns(keys, n, k, prev_key) if keys else ([],) * 3 + (None,)
    return _expected_run(matches, occ, len(values), gated, key_columns)


def one_key_runs(run):
    """Each search of the run as a one-key run, the run ``search`` returns
    for that query after the one before."""
    rows = zip(run.matches, run.energized, run.ml_en_transitions, run.sl_toggles)
    return [SearchRun(run.energizers, [m], [e], [t], [s]) for m, e, t, s in rows]


def query_totals(run):
    """Each search's ``EventTotals``, read from the run's columns."""
    return [sum_event_totals(one) for one in one_key_runs(run)]


def assert_run_is_oracle_run(run, arr, keys, prev_key=None):
    """The run equals, whole, the oracles' run of the same keys after
    ``prev_key``, and every count is a plain int, every match a tuple."""
    assert run == oracle_run(arr, keys, prev_key)
    columns = (run.energized, run.ml_en_transitions, run.sl_toggles)
    assert {type(c) for column in columns for c in column} <= {int}
    assert {type(m) for m in run.matches} <= {tuple}
