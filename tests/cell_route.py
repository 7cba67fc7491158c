"""Shared test helpers: the small stores the search tests sweep, the check
of a search against its per-word traces, and the check of a columnar run
of int query keys against the oracles: ``oracle_search`` for the matches
and the verifier's count oracle for the counts."""

from camsim import (
    BitWord,
    EventTotals,
    Level,
    SearchReport,
    Variant,
    oracle_search,
    search,
    word_traces,
)
from camsim.verify import _count_columns, _key_columns


def all_words(n):
    return [BitWord(n, v) for v in range(1 << n)]


# 13 five-bit words: every bucket occupied at k = 2 and 3, and 7 stored twice
FIVE_BIT_STORE = [BitWord(5, 7 * i % 32) for i in range(12)] + [BitWord(5, 7)]


def assert_traces_explain(arr, query, prev=None, report=None):
    """The event-level check: the per-word traces of a search of ``query``
    after ``prev`` sum to its event totals field by field, and give its
    matches and energized count. ``report`` is the search's record, or None
    for ``search``'s. Returns the report and the traces."""
    if report is None:
        report = search(arr, query, prev)
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
    assert summed._asdict() == report.event_totals._asdict()
    assert report.matches == tuple(t.addr for t in traces if t.ml_final is Level.HIGH)
    assert report.event_totals.ml_precharges == sum(t.ml_precharged for t in traces)
    return report, traces


def threaded(n, keys, prev_key=None):
    """Each query key as ``BitWord(n, key)``, paired with the query before
    it (``prev_key``'s for the first, or None), as ``run_search_stream``
    threads the stream."""
    prev = None if prev_key is None else BitWord(n, prev_key)
    for key in keys:
        query = BitWord(n, key)
        yield query, prev
        prev = query


def oracle_reports(arr, keys, prev_key=None):
    """Each query key's ``SearchReport`` as the oracles give it, the keys
    searched in order after ``prev_key``: ``oracle_search``'s scan of the
    stored values for the matches, and the count oracle of ``camsim
    verify`` (``_key_columns`` and ``_count_columns``, which read the
    stored prefixes, not the array's gate) for the event totals."""
    keys = list(keys)
    if not keys:
        return []
    n, k = arr.config.word_bits, arr.config.mle_bits
    values = arr.values
    occ = [0] * (1 << k)
    for v in values:
        occ[v >> (n - k)] += 1
    matches = [oracle_search(values, key) for key in keys]
    counts = _count_columns(
        occ, len(values), arr.variant is Variant.SELECTIVE,
        _key_columns(keys, n, k, prev_key),
    )
    # the lines that precharge and do not match discharge
    discharges = [e - len(m) for e, m in zip(counts["energized"], matches)]
    totals = zip(
        counts["ml_en_transitions"], counts["energized"], discharges,
        counts["sl_toggles"], counts["energizers"],
    )
    return [SearchReport(m, EventTotals(*t)) for m, t in zip(matches, totals)]


def run_reports(run):
    """Each search's ``SearchReport``, read from the run's columns."""
    totals = zip(
        run.ml_en_transitions, run.energized, run.ml_discharges, run.sl_toggles
    )
    return [
        SearchReport(m, EventTotals(t, e, d, s, run.energizers))
        for m, (t, e, d, s) in zip(run.matches, totals)
    ]


def assert_run_equals_reports(run, reports):
    """Every column entry of the run equals the field of that name in the
    query's report (``energized`` is ``ml_precharges``), and every count is
    a plain int."""
    assert len(run) == len(reports)
    assert run_reports(run) == reports
    columns = (run.energized, run.ml_en_transitions, run.sl_toggles)
    assert {type(c) for column in columns for c in column} <= {int}
    assert {type(m) for m in run.matches} <= {tuple}
