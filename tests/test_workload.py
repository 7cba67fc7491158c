import codecs
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camsim.workload

from camsim import (
    BadDigit,
    CamConfig,
    EmptyStore,
    EnergyModel,
    InvalidConfig,
    SearchRun,
    Store,
    Variant,
    WidthMismatch,
    WorkloadKind,
    WorkloadSpec,
    aggregate,
    gen_queries,
    gen_words,
    load_words,
    new_array,
    oracle_search,
    run_search_stream,
    sweep_mle_bits,
    word_text,
    write_report,
)
from camsim.workload import (
    QUERY_ROW_KEYS,
    QUERY_ROWS_PER_CHUNK,
    SWEEP_CSV_HEADER,
    QueryRows,
    content_lines,
    query_summary,
    read_text_lines,
    report_json_text,
    sweep_csv_text,
)


def test_gen_words_deterministic():
    assert gen_words(50, 144, 42) == gen_words(50, 144, 42)
    assert gen_words(50, 144, 42) != gen_words(50, 144, 43)


def test_gen_words_reference_geometry():
    words = gen_words(256, 144, 0)
    assert type(words) is Store and len(words) == 256 and words.width == 144
    assert {type(v) for v in words} == {int}
    assert all(0 <= v < 1 << 144 for v in words)


def test_gen_words_per_bit_mean():
    # 700 x 144 = 100800 bits; the [0.49, 0.51] band is a >5 sigma bound
    words = gen_words(700, 144, 7)
    ones = sum(v.bit_count() for v in words)
    mean = ones / (700 * 144)
    assert 0.49 <= mean <= 0.51


def test_gen_words_validates_args():
    with pytest.raises(InvalidConfig):
        gen_words(0, 8, 0)
    with pytest.raises(InvalidConfig):
        gen_words(8, 0, 0)


def test_uniform_queries_deterministic_and_width_bound():
    words = gen_words(4, 16, 1)
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 20, 9)
    qs = gen_queries(spec, words)
    assert qs == gen_queries(spec, words)
    assert all(0 <= q < 1 << 16 for q in qs)


@pytest.mark.parametrize("spec", [
    WorkloadSpec(WorkloadKind.UNIFORM, 60, 9),
    WorkloadSpec(WorkloadKind.PLANTED, 60, 9, match_rate=0.5),
    WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 60, 9, bias=0.9),
], ids=lambda spec: spec.kind.value)
@pytest.mark.parametrize("width", [3, 64, 144])
def test_queries_are_a_list_of_int_keys_as_wide_as_the_words(spec, width):
    # The query column that run_search_stream takes: a list of plain ints,
    # each an n-bit value for the stored words' width n.
    keys = gen_queries(spec, gen_words(8, width, 2))
    assert type(keys) is list and len(keys) == 60
    assert {type(k) for k in keys} == {int}
    assert all(0 <= k < 1 << width for k in keys)


def test_planted_rate_one_always_matches():
    words = gen_words(16, 32, 3)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 50, 11, match_rate=1.0)
    for key in gen_queries(spec, words):
        assert oracle_search(words, key)


def test_planted_rate_zero_effectively_never_matches():
    words = gen_words(16, 144, 3)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 50, 11, match_rate=0.0)
    for key in gen_queries(spec, words):
        assert not oracle_search(words, key)


def test_planted_match_fraction_tracks_rate():
    rate = 0.3
    num = 2000
    words = gen_words(8, 32, 5)
    spec = WorkloadSpec(WorkloadKind.PLANTED, num, 17, match_rate=rate)
    hits = sum(1 for key in gen_queries(spec, words) if oracle_search(words, key))
    sigma = math.sqrt(rate * (1 - rate) / num)
    assert abs(hits / num - rate) <= 3 * sigma + 1e-9


def test_planted_needs_words():
    spec = WorkloadSpec(WorkloadKind.PLANTED, 5, 0, match_rate=0.5)
    with pytest.raises(EmptyStore):
        gen_queries(spec, Store([], 8))


@pytest.mark.parametrize("spec", [
    WorkloadSpec(WorkloadKind.UNIFORM, 5, 0),
    WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 5, 0, bias=0.9),
])
def test_unplanted_needs_words(spec):
    with pytest.raises(EmptyStore):
        gen_queries(spec, Store([], 8))


def test_prefix_skewed_exceeds_uniform_fraction():
    # bias -> 1 drives the energized fraction toward the anchor-prefix share
    cfg = CamConfig(64, 24, 3, seed=19)
    words = gen_words(cfg.num_words, cfg.word_bits, cfg.seed)
    bias = 0.95
    spec = WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 2000, 23, bias=bias)
    queries = gen_queries(spec, words)
    arr = new_array(cfg, Variant.SELECTIVE, words)
    run = run_search_stream(arr, queries)
    measured = sum(run.energized) / (cfg.num_words * len(queries))

    # analytic expectation: each word is energized with prob
    # bias^(k-d) * (1-bias)^d, d = prefix Hamming distance to words[0]
    k = cfg.mle_bits
    shift = cfg.word_bits - k
    expect = 0.0
    for value in words:
        d = ((value ^ words[0]) >> shift).bit_count()
        expect += bias ** (k - d) * (1 - bias) ** d
    expect /= cfg.num_words
    assert measured > 0.125
    assert measured == pytest.approx(expect, abs=0.02)


def test_workload_spec_validation():
    with pytest.raises(InvalidConfig):
        WorkloadSpec(WorkloadKind.UNIFORM, 0, 0)
    with pytest.raises(InvalidConfig):
        WorkloadSpec(WorkloadKind.PLANTED, 5, 0)  # missing rate
    with pytest.raises(InvalidConfig):
        WorkloadSpec(WorkloadKind.PLANTED, 5, 0, match_rate=1.5)
    with pytest.raises(InvalidConfig):
        WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 5, 0, bias=1.0)


# -------------------------------------------------------------------- files


def test_load_words_skips_comments_and_blanks():
    stream = io.StringIO("# header\n0000\n\n1111\n")
    words = load_words(stream, 4, "bin")
    assert type(words) is Store and words == (0b0000, 0b1111) and words.width == 4


def test_load_words_error_cites_line_number():
    stream = io.StringIO("0000\n1111\n10x0\n")
    with pytest.raises(BadDigit) as err:
        load_words(stream, 4, "bin")
    assert "line 3" in str(err.value)
    assert isinstance(err.value.__cause__, BadDigit)
    stream = io.StringIO("0000\n111\n")
    with pytest.raises(WidthMismatch) as err:
        load_words(stream, 4, "bin")
    assert str(err.value).startswith("line 2: ")
    assert isinstance(err.value.__cause__, WidthMismatch)
    with pytest.raises(WidthMismatch) as err:
        load_words(["0000", "111"], 4, "bin", name="words.txt")
    assert str(err.value).startswith("words.txt: line 2: ")


def test_content_lines_numbers_every_line():
    lines = ["# head", "", "  0101  ", "\t# indented comment", "1 = 2", "   "]
    assert list(content_lines(lines)) == [(3, "0101"), (5, "1 = 2")]


def test_read_text_lines_is_utf8_and_names_undecodable_file(tmp_path):
    good = tmp_path / "good.txt"
    good.write_bytes("# caf\u00e9\r\n0101\n".encode("utf-8"))
    assert list(read_text_lines(good)) == ["# caf\u00e9", "0101", ""]
    marked = tmp_path / "marked.txt"
    marked.write_bytes("\ufeff0101\n".encode("utf-8"))
    assert list(read_text_lines(marked)) == ["0101", ""]
    bad = tmp_path / "bad.txt"
    bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(OSError, match="bad.txt: not UTF-8 text") as err:
        list(read_text_lines(bad))
    assert isinstance(err.value.__cause__, UnicodeDecodeError)


def _whole_file_lines(path) -> list[str]:
    """The lines of the whole file decoded at once, with universal newlines,
    or its error. The bytes are decoded in one call: a text-mode reader
    waits for the rest of a byte-order mark that the file cuts short, and
    reads a file of one or two bytes of the mark as empty."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
        return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"


def _lazy_lines(path) -> list[str]:
    try:
        return list(read_text_lines(path))
    except OSError as exc:
        return str(exc)


# Bytes that end lines, mark the file, break UTF-8 at its edges, or are
# plain text, joined at random.
_TEXT_PIECES = [
    b"\n", b"\r", b"\r\n", b"0", b"1", b"#", b" ", codecs.BOM_UTF8, b"\xef",
    b"\xef\xbb", "\u20ac".encode(), b"\xe2\x82", b"\xc3", b"\xff",
    "\U0001f600".encode(), b"\xf0\x9f",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12),
       st.sampled_from([1, 2, 5, camsim.workload.TEXT_BLOCK_BYTES]))
def test_lines_read_a_block_at_a_time_are_the_whole_file_s(
    tmp_path_factory, pieces, block
):
    # Every line and every error of the file read whole, at any block size,
    # whatever the line ends, marks or broken sequences.
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(b"".join(pieces))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(camsim.workload, "TEXT_BLOCK_BYTES", block)
        assert _lazy_lines(path) == _whole_file_lines(path)


@pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8])
def test_a_bad_byte_past_the_first_block_is_named_at_its_offset(tmp_path, mark):
    # Over 64 KB of words, then a Latin-1 byte: the error names the offset
    # that the whole file's decoder gave, counted after the mark.
    good = b"".join(b"%0144d\n" % i for i in range(500))
    assert len(good) > camsim.workload.TEXT_BLOCK_BYTES == 1 << 16
    path = tmp_path / "q.txt"
    path.write_bytes(mark + good + b"# caf\xe9\n" + b"0" * 144 + b"\n")
    message = f"{path}: not UTF-8 text (invalid continuation byte at byte {len(good) + 5})"
    assert _whole_file_lines(path) == message
    with pytest.raises(OSError) as err:
        list(read_text_lines(path))
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, UnicodeDecodeError)


def test_no_file_is_open_while_a_line_is_given_out(tmp_path, monkeypatch):
    # The reader closes the file before it gives out a block's lines, so a
    # reader dropped part way, or stopped by a bad line, leaves none open.
    path = tmp_path / "q.txt"
    path.write_bytes(b"0101\n" * 40_000)
    opened = []

    def recorded_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(camsim.workload, "open", recorded_open, raising=False)
    for line in read_text_lines(path):
        assert all(f.closed for f in opened)
    assert len(opened) > 3  # 200 KB, read 64 KB at a time


def test_load_words_passes_other_errors_through_unchanged():
    with pytest.raises(ValueError) as err:
        load_words(io.StringIO("0000\n"), 4, "oct")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown word format 'oct'"


@pytest.mark.parametrize("fmt", ["bin", "hex"])
def test_dump_then_load_round_trip(fmt):
    words = gen_words(20, 16, 77)
    text = "".join(word_text(v, 16, fmt) + "\n" for v in words)
    loaded = load_words(io.StringIO(text), 16, fmt)
    assert loaded == words and loaded.width == words.width


# ------------------------------------------------------------------ reports


def _sweep_rows():
    cfg = CamConfig(16, 12, 2, seed=3)
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 50, 3)
    return sweep_mle_bits(cfg, EnergyModel(), spec, range(2, 7))


def test_sweep_csv_header_and_rows():
    text = sweep_csv_text(_sweep_rows())
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER == "k,energized_fraction,energy_metric,mean_delay"
    assert len(lines) == 6
    assert lines[1].startswith("2,")


def test_csv_numbers_use_six_significant_digits():
    text = sweep_csv_text(_sweep_rows())
    for line in text.splitlines()[1:]:
        for fieldtext in line.split(",")[1:]:
            mantissa = fieldtext.replace(".", "").replace("-", "").lstrip("0")
            assert len(mantissa) <= 6


def test_write_report_byte_identical(tmp_path):
    rows = _sweep_rows()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(rows, a)
    write_report(rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_report_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "report.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig) as err:
            write_report({"energy_total": bad}, path)
        assert isinstance(err.value.__cause__, ValueError)
    assert not path.exists()


def test_write_report_json_round_trip(tmp_path):
    cfg = CamConfig(8, 12, 3, seed=3)
    words = gen_words(8, 12, 3)
    queries = gen_queries(WorkloadSpec(WorkloadKind.UNIFORM, 5, 3), words)
    run = run_search_stream(new_array(cfg, Variant.SELECTIVE, words), queries)
    energies = aggregate(run, EnergyModel(), cfg)
    doc = {"report": "search", "queries": _rows_then(run, energies, _AFTER_ROWS)}
    path = tmp_path / "report.json"
    assert write_report(doc, path) == _AFTER_ROWS
    loaded = json.loads(path.read_text())
    assert list(loaded) == ["report", "queries", *_AFTER_ROWS]
    assert [e["energized_count"] for e in loaded["queries"]] == run.energized
    assert [e["matches"] for e in loaded["queries"]] == list(map(list, run.matches))
    assert [e["energy"] for e in loaded["queries"]] == energies


def test_a_rows_callable_must_be_the_last_member(tmp_path):
    # The rows are written where the document ends, so a member after them
    # would move; the document is refused before any byte.
    called = []
    doc = {"queries": called.append, "notes": []}
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="must be the last member"):
        write_report(doc, path)
    assert not path.exists() and called == []


# The row template must write what json.dumps writes; this is the reference.
def _dumps_reference(document: dict) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _reference_rows(run, energies) -> list[dict]:
    """The rows as plain dicts: what ``json.dumps`` must render the same."""
    return [
        {
            "index": i,
            "matches": list(t[0]),
            "energized_count": t[1],
            "events": dict(zip(_EVENT_NAMES, t[2:])),
            "energy": energy,
        }
        for i, (t, energy) in enumerate(zip(zip(
            run.matches, run.energized, run.ml_en_transitions, run.energized,
            run.ml_discharges, run.sl_toggles, [run.energizers] * len(run),
        ), energies))
    ]


ROW_ENERGIES = (0.0, -0.0, 1.0, 0.1 + 0.2, 1e22, 1e-300, 5e-324, 7)
_EVENT_NAMES = ("ml_en_transitions", "ml_precharges", "ml_discharges",
                "sl_toggles", "mle_evaluations")


def _planted_stream(num_queries: int, hits_at=(), misses_at=()):
    """A gated array of 16 words, three of which store one value, and
    planted queries; the queries at ``hits_at`` are set to that value and
    those at ``misses_at`` to one that no word stores."""
    cfg = CamConfig(16, 12, 3, seed=4)
    values = list(gen_words(16, 12, 4))
    values[5] = values[9] = values[2]  # one query can then match three lines
    words = Store(values, 12)
    spec = WorkloadSpec(WorkloadKind.PLANTED, num_queries, 4, match_rate=0.6)
    queries = gen_queries(spec, words)
    miss = next(v for v in range(1 << 12) if v not in words)
    for at, key in ((hits_at, words[2]), (misses_at, miss)):
        for i in at:
            if i < num_queries:
                queries[i] = key
    return new_array(cfg, Variant.SELECTIVE, words), queries


def _planted_run(num_queries: int = 30, hits_at=(), misses_at=()):
    """The run of ``_planted_stream`` and its energies."""
    arr, queries = _planted_stream(num_queries, hits_at, misses_at)
    run = run_search_stream(arr, queries)
    return run, aggregate(run, EnergyModel(), arr.config)


def _document(rows) -> dict:
    return {"report": "search", "aggregate": {"energy_total": 2.5},
            "queries": rows, "notes": ["after the rows"]}


# The members a search-shaped document's rows callable returns, to be
# written after the rows.
_AFTER_ROWS = {"aggregate": {"energy_total": 2.5}, "notes": ["after the rows"]}


def _rows_then(run, energies, after: dict):
    """A rows callable: it writes the run's rows through ``query_summary``
    and returns ``after``."""
    def rows(written: QueryRows) -> dict:
        query_summary(run, energies, written)
        return after

    return rows


def _assert_rows_render_as_json_dumps(run, energies):
    # A search-shaped document, with members before and after its rows, and
    # one of rows alone.
    reference = _reference_rows(run, energies)
    for doc, want in (
        ({"report": "search", "queries": _rows_then(run, energies, _AFTER_ROWS)},
         {"report": "search", "queries": reference, **_AFTER_ROWS}),
        ({"queries": _rows_then(run, energies, {})}, {"queries": reference}),
    ):
        assert report_json_text(doc) == _dumps_reference(want)


def test_row_template_equals_json_dumps_on_planted_rows():
    run, energies = _planted_run()
    assert {len(m) for m in run.matches} >= {0, 1, 3}
    _assert_rows_render_as_json_dumps(run, energies)


def test_row_template_energies():
    n = len(ROW_ENERGIES)
    run = SearchRun(
        16, [(i,) * (i % 3) for i in range(n)], [3] * n, [3] * n, [3] * n
    )
    _assert_rows_render_as_json_dumps(run, ROW_ENERGIES)


def test_row_template_renders_an_empty_run():
    run = SearchRun(16, [], [], [], [])
    out = io.StringIO()
    assert query_summary(run, [], QueryRows(out)).count == 0
    assert out.getvalue() == ""
    _assert_rows_render_as_json_dumps(run, [])


@pytest.mark.parametrize("extra", [-1, 0, 1, QUERY_ROWS_PER_CHUNK + 1])
def test_rows_render_as_json_dumps_across_chunk_boundaries(extra):
    # The Hypothesis rows below never fill a chunk. At 2 * chunk + 1 rows
    # the first boundary has hits on both sides and the second none.
    chunk = QUERY_ROWS_PER_CHUNK
    run, energies = _planted_run(
        chunk + extra, hits_at=(chunk - 1, chunk), misses_at=(2 * chunk - 1, 2 * chunk)
    )
    if extra > 0:
        assert run.matches[chunk - 1] and run.matches[chunk]
    if extra > chunk:
        assert not (run.matches[2 * chunk - 1] or run.matches[2 * chunk])
    _assert_rows_render_as_json_dumps(run, energies)
    writes = query_summary(run, energies, QueryRows(_RecordingStream())).out.writes
    # each piece is one write, after the separator from what comes before
    # it: the list's opening bracket, or the row before
    pieces = writes[1::2]
    assert writes[::2] == ["\n"] + [",\n"] * (len(pieces) - 1)
    assert len(pieces) == -(-len(run) // chunk)
    assert all(p.count('"index"') <= chunk for p in pieces)
    assert all(p.startswith("    {") for p in pieces)


class _RecordingStream(io.StringIO):
    """An in-memory text stream that keeps a copy of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text) -> int:
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("sizes", [
    [1, 1], [1, 40], [31, 1, 32], [QUERY_ROWS_PER_CHUNK + 1] * 3, [5, 0, 70],
])
def test_rows_of_a_run_in_parts_join_to_the_whole_run(sizes):
    # camsim search writes each chunk's run after the rows before it: the
    # indices go on and every part after the first opens with the
    # separator, so the parts render as the whole run does.
    arr, keys = _planted_stream(sum(sizes), hits_at=(0, 1, 32, 33))
    run = run_search_stream(arr, keys)
    energies = aggregate(run, EnergyModel(), arr.config)
    whole = query_summary(run, energies, QueryRows(io.StringIO())).out.getvalue()
    rows, start = QueryRows(io.StringIO()), 0
    for size in sizes:
        part = run_search_stream(
            arr, keys[start:start + size], keys[start - 1] if start else None, start
        )
        query_summary(part, energies[start:start + size], rows)
        start += size
    assert rows.count == len(run)
    assert rows.out.getvalue() == whole


def test_written_report_is_never_held_whole(tmp_path):
    # The rows are rendered into the report a piece at a time as they are
    # written: from the rows' summary to the closed file, the traced peak
    # stays far below the file's size (the whole text alone would be 1x,
    # its bytes 2x).
    run, energies = _planted_run(20_000)
    doc = {"report": "search", "queries": _rows_then(run, energies, _AFTER_ROWS)}
    path = tmp_path / "report.json"
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_report(doc, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size / 4, (peak, size)


_UINT64 = st.integers(0, 2**64)
_COLUMNS = st.lists(
    st.tuples(
        st.lists(_UINT64, max_size=5).map(tuple),
        _UINT64,
        _UINT64,
        _UINT64,
        st.one_of(
            st.sampled_from(ROW_ENERGIES),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(_COLUMNS, st.integers(0, 2**64))
def test_row_template_equals_json_dumps_on_random_rows(rows, energizers):
    matches, energized, ml_en, sl, energies = map(list, zip(*rows))
    run = SearchRun(energizers, matches, energized, ml_en, sl)
    _assert_rows_render_as_json_dumps(run, energies)


def _foreign_rows(good: list[dict]) -> list:
    """Rows that ``query_summary`` never builds, one flaw each."""
    events = good[0]["events"]

    def row(*values):
        return dict(zip(QUERY_ROW_KEYS, values))

    return [
        {"index": 3},
        dict(reversed(list(good[0].items()))),
        {**good[0], "extra": 1},
        row(True, [], 0, events, 1.0),
        row(0, [False], 0, events, 1.0),
        row(0, (1, 2), 0, events, 1.0),
        row(0, [], 0, events, 1),
        row(0, [], 0, {**events, "sl_toggles": 1.5}, 1.0),
        row(0, [], 0, dict(reversed(list(events.items()))), 1.0),
        row(0, [], "0", events, 1.0),
        "not a row",
        1,
        None,
    ]


def test_foreign_queries_lists_keep_json_dumps_bytes():
    # Only a rows callable is written row by row; any other "queries" value,
    # including plain dicts of the same shape, goes through json.dumps.
    good = _reference_rows(*_planted_run())[:3]
    bad = _foreign_rows(good)
    foreign = [[], good, *([row] for row in bad), bad, tuple(good)]
    for rows in foreign:
        for doc in (_document(rows), {"queries": rows}):
            assert report_json_text(doc) == _dumps_reference(doc)
    nested = {"inner": {"queries": []}, "queries": good, "tail": "\n  \"queries\": []"}
    assert report_json_text(nested) == _dumps_reference(nested)


def test_one_foreign_row_among_many_keeps_json_dumps_bytes():
    good = _reference_rows(*_planted_run(300))
    for row in _foreign_rows(good):
        for rows in ([*good, row], [*good[:150], row, *good[150:]]):
            for doc in (_document(rows), {"queries": rows}):
                assert report_json_text(doc) == _dumps_reference(doc)


def test_rows_need_one_energy_per_search():
    run, energies = _planted_run()
    for wrong in (energies[:-1], [*energies, 1.0]):
        with pytest.raises(ValueError, match="energies for a run of 30"):
            query_summary(run, wrong, QueryRows(io.StringIO()))


def test_non_finite_row_energy_is_rejected():
    # A run's energies are checked before any of its rows is written: the
    # rows of the runs before it stay, and the error names the number as
    # json.dumps would.
    run, energies = _planted_run()
    for bad in (math.nan, math.inf, -math.inf):
        rows = query_summary(run, energies, QueryRows(io.StringIO()))
        before = rows.out.getvalue()
        with pytest.raises(ValueError) as want:
            _dumps_reference({"energy": bad})
        with pytest.raises(InvalidConfig) as err:
            query_summary(run, [*energies[:-1], bad], rows)
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value) == f"report holds a non-finite number: {want.value}"
        assert (rows.count, rows.out.getvalue()) == (len(run), before)


def test_non_finite_header_is_rejected_before_the_rows(tmp_path):
    # A non-finite member before the rows is refused before the first byte:
    # no file, an empty stream, and the rows are never searched.
    called = []
    doc = {"report": "search", "energy_total": math.inf, "queries": called.append}
    path = tmp_path / "report.json"
    stream = io.StringIO()
    for destination in (path, stream):
        with pytest.raises(InvalidConfig, match="non-finite number"):
            write_report(doc, destination)
    assert not path.exists()
    assert stream.getvalue() == "" and called == []


def test_non_finite_member_after_the_rows_leaves_what_was_written():
    # The members after the rows exist only once the rows are written, so a
    # non-finite one is refused after them: the written text stays.
    # camsim search checks its worst case first and so never gets here.
    run, energies = _planted_run()
    stream = io.StringIO()
    doc = {"report": "search",
           "queries": _rows_then(run, energies, {"aggregate": math.nan})}
    with pytest.raises(InvalidConfig, match="non-finite number"):
        write_report(doc, stream)
    reference = _dumps_reference({"report": "search",
                                  "queries": _reference_rows(run, energies)})
    assert stream.getvalue() == reference[:-len("\n}\n")]
