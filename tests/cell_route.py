"""Shared test helpers: the small stores the search tests sweep, and the
check of a search against its per-word traces."""

from camsim import BitWord, EventTotals, Level


def all_words(n):
    return [BitWord(n, v) for v in range(1 << n)]


# 13 five-bit words: every bucket occupied at k = 2 and 3, and 7 stored twice
FIVE_BIT_STORE = [BitWord(5, 7 * i % 32) for i in range(12)] + [BitWord(5, 7)]


def assert_traces_explain(report):
    """The event-level check: the per-word traces sum to the search's event
    totals field by field, and give its matches and energized count."""
    traces = report.traces
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
    assert report.energized_count == sum(t.ml_precharged for t in traces)
