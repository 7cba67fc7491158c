"""Shared test helpers: the small stores the search tests sweep, the check
of a search against its per-word traces, and the check of a columnar run
of int query keys against query-by-query ``search``."""

from camsim import BitWord, EventTotals, Level, search, word_traces


def all_words(n):
    return [BitWord(n, v) for v in range(1 << n)]


# 13 five-bit words: every bucket occupied at k = 2 and 3, and 7 stored twice
FIVE_BIT_STORE = [BitWord(5, 7 * i % 32) for i in range(12)] + [BitWord(5, 7)]


def assert_traces_explain(arr, query, prev=None):
    """The event-level check: the per-word traces of a search of ``query``
    after ``prev`` sum to its event totals field by field, and give its
    matches and energized count. Returns the search's report and traces."""
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


def searched(arr, keys, prev_key=None):
    """Each query key's ``search`` report, threaded as ``threaded`` pairs
    them."""
    return [search(arr, q, p) for q, p in threaded(arr.config.word_bits, keys, prev_key)]


def run_totals(run):
    """Each search's ``EventTotals``, read from the run's columns."""
    return [
        EventTotals(t, e, d, s, run.energizers)
        for t, e, d, s in zip(
            run.ml_en_transitions, run.energized, run.ml_discharges, run.sl_toggles
        )
    ]


def assert_run_equals_searches(run, reports):
    """Every column entry of the run equals the field of that name in the
    query's ``search`` report (``energized`` is ``ml_precharges``), and every
    count is a plain int."""
    assert len(run) == len(reports)
    assert list(run.matches) == [r.matches for r in reports]
    assert run_totals(run) == [r.event_totals for r in reports]
    columns = (run.energized, run.ml_en_transitions, run.sl_toggles)
    assert {type(c) for column in columns for c in column} <= {int}
    assert {type(m) for m in run.matches} <= {tuple}
