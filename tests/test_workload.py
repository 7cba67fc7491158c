import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim import (
    BadDigit,
    BitWord,
    CamConfig,
    EmptyStore,
    EnergyModel,
    InvalidConfig,
    Variant,
    WidthMismatch,
    WorkloadKind,
    WorkloadSpec,
    aggregate,
    dump_words,
    gen_queries,
    gen_words,
    load_words,
    new_array,
    oracle_search,
    run_search_stream,
    sweep_mle_bits,
    write_report,
)
from camsim.workload import (
    QUERY_ROW_KEYS,
    SWEEP_CSV_HEADER,
    _query_rows_parts,
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
    assert len(words) == 256
    assert all(w.width == 144 for w in words)


def test_gen_words_per_bit_mean():
    # 700 x 144 = 100800 bits; the [0.49, 0.51] band is a >5 sigma bound
    words = gen_words(700, 144, 7)
    ones = sum(w.value.bit_count() for w in words)
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
    assert all(q.width == 16 for q in qs)


def test_planted_rate_one_always_matches():
    words = gen_words(16, 32, 3)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 50, 11, match_rate=1.0)
    values = [w.value for w in words]
    for q in gen_queries(spec, words):
        assert oracle_search(values, q.value)


def test_planted_rate_zero_effectively_never_matches():
    words = gen_words(16, 144, 3)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 50, 11, match_rate=0.0)
    values = [w.value for w in words]
    for q in gen_queries(spec, words):
        assert not oracle_search(values, q.value)


def test_planted_match_fraction_tracks_rate():
    rate = 0.3
    num = 2000
    words = gen_words(8, 32, 5)
    spec = WorkloadSpec(WorkloadKind.PLANTED, num, 17, match_rate=rate)
    values = [w.value for w in words]
    hits = sum(1 for q in gen_queries(spec, words) if oracle_search(values, q.value))
    sigma = math.sqrt(rate * (1 - rate) / num)
    assert abs(hits / num - rate) <= 3 * sigma + 1e-9


def test_planted_needs_words():
    spec = WorkloadSpec(WorkloadKind.PLANTED, 5, 0, match_rate=0.5)
    with pytest.raises(EmptyStore):
        gen_queries(spec, [])


@pytest.mark.parametrize("spec", [
    WorkloadSpec(WorkloadKind.UNIFORM, 5, 0),
    WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 5, 0, bias=0.9),
])
def test_unplanted_needs_words(spec):
    with pytest.raises(EmptyStore):
        gen_queries(spec, [])


def test_prefix_skewed_exceeds_uniform_fraction():
    # bias -> 1 drives the energized fraction toward the anchor-prefix share
    cfg = CamConfig(64, 24, 3, seed=19)
    words = gen_words(cfg.num_words, cfg.word_bits, cfg.seed)
    bias = 0.95
    spec = WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 2000, 23, bias=bias)
    queries = gen_queries(spec, words)
    arr = new_array(cfg, Variant.SELECTIVE, words)
    reports = run_search_stream(arr, queries)
    measured = sum(r.energized_count for r in reports) / (cfg.num_words * len(queries))

    # analytic expectation: each word is energized with prob
    # bias^(k-d) * (1-bias)^d, d = prefix Hamming distance to words[0]
    k = cfg.mle_bits
    anchor = words[0]
    expect = 0.0
    for w in words:
        d = sum(w.bit(i) != anchor.bit(i) for i in range(k))
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
    assert [w.to_text() for w in words] == ["0000", "1111"]


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
    assert read_text_lines(good) == ["# caf\u00e9", "0101", ""]
    marked = tmp_path / "marked.txt"
    marked.write_bytes("\ufeff0101\n".encode("utf-8"))
    assert read_text_lines(marked) == ["0101", ""]
    bad = tmp_path / "bad.txt"
    bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(OSError, match="bad.txt: not UTF-8 text") as err:
        read_text_lines(bad)
    assert isinstance(err.value.__cause__, UnicodeDecodeError)


def test_load_words_passes_other_errors_through_unchanged():
    with pytest.raises(ValueError) as err:
        load_words(io.StringIO("0000\n"), 4, "oct")
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown word format 'oct'"


@pytest.mark.parametrize("fmt", ["bin", "hex"])
def test_dump_then_load_round_trip(fmt):
    words = gen_words(20, 16, 77)
    buf = io.StringIO()
    dump_words(words, buf, fmt)
    assert load_words(io.StringIO(buf.getvalue()), 16, fmt) == words


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
    write_report(rows, a, "csv")
    write_report(rows, b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_write_report_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "report.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig) as err:
            write_report({"energy_total": bad}, path, "json")
        assert isinstance(err.value.__cause__, ValueError)
    assert not path.exists()


def test_write_report_json_round_trip(tmp_path):
    cfg = CamConfig(8, 12, 3, seed=3)
    words = gen_words(8, 12, 3)
    queries = gen_queries(WorkloadSpec(WorkloadKind.UNIFORM, 5, 3), words)
    reports = aggregate(
        run_search_stream(new_array(cfg, Variant.SELECTIVE, words), queries),
        EnergyModel(), cfg,
    )
    doc = {"queries": [query_summary(i, r) for i, r in enumerate(reports)]}
    path = tmp_path / "report.json"
    write_report(doc, path, "json")
    loaded = json.loads(path.read_text())
    for entry, report in zip(loaded["queries"], reports):
        assert entry["energized_count"] == report.energized_count
        assert entry["matches"] == list(report.matches)


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report({}, tmp_path / "x", "yaml")


# The row template must write what json.dumps writes; this is the reference.
def _dumps_reference(document: dict) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


ROW_ENERGIES = (0.0, 1.0, 0.1 + 0.2, 1e22, 1e-300, 5e-324, None)
_EVENT_NAMES = ("ml_en_transitions", "ml_precharges", "ml_discharges",
                "sl_toggles", "mle_evaluations")


def _row(index, matches, count, events, energy) -> dict:
    return dict(zip(QUERY_ROW_KEYS, (index, matches, count, events, energy)))


def _planted_rows(num_queries: int = 30) -> list[dict]:
    cfg = CamConfig(16, 12, 3, seed=4)
    words = gen_words(16, 12, 4)
    words[5] = words[9] = words[2]  # one query can then match three lines
    spec = WorkloadSpec(WorkloadKind.PLANTED, num_queries, 4, match_rate=0.6)
    queries = gen_queries(spec, words)
    reports = run_search_stream(new_array(cfg, Variant.SELECTIVE, words), queries)
    return [
        query_summary(i, r)
        for i, r in enumerate(aggregate(reports, EnergyModel(), cfg))
    ]


def _document(rows: list) -> dict:
    return {"report": "search", "aggregate": {"energy_total": 2.5},
            "queries": rows, "notes": ["after the rows"]}


def test_row_template_equals_json_dumps_on_planted_rows():
    rows = _planted_rows()
    assert {len(r["matches"]) for r in rows} >= {0, 1, 3}
    assert _query_rows_parts(rows) is not None  # the template renders them
    doc = _document(rows)
    assert report_json_text(doc) == _dumps_reference(doc)
    only = {"queries": rows}
    assert report_json_text(only) == _dumps_reference(only)


def test_row_template_energies():
    events = dict.fromkeys(_EVENT_NAMES, 3)
    rows = [_row(i, [i] * (i % 3), i, events, e) for i, e in enumerate(ROW_ENERGIES)]
    assert _query_rows_parts(rows) is not None
    for doc in (_document(rows), {"queries": rows}):
        assert report_json_text(doc) == _dumps_reference(doc)


_UINT64 = st.integers(0, 2**64)
_ROWS = st.lists(
    st.builds(
        _row,
        _UINT64,
        st.lists(_UINT64, max_size=5),
        _UINT64,
        st.tuples(*[_UINT64] * 5).map(lambda counts: dict(zip(_EVENT_NAMES, counts))),
        st.one_of(
            st.sampled_from(ROW_ENERGIES),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(_ROWS)
def test_row_template_equals_json_dumps_on_random_rows(rows):
    assert _query_rows_parts(rows) is not None
    for doc in (_document(rows), {"queries": rows}):
        assert report_json_text(doc) == _dumps_reference(doc)


def _foreign_rows(good: list[dict]) -> list:
    """Rows that ``query_summary`` never builds, one flaw each."""
    events = good[0]["events"]
    return [
        {"index": 3},
        dict(reversed(list(good[0].items()))),
        {**good[0], "extra": 1},
        _row(True, [], 0, events, 1.0),
        _row(0, [False], 0, events, 1.0),
        _row(0, (1, 2), 0, events, 1.0),
        _row(0, [], 0, events, 1),
        _row(0, [], 0, {**events, "sl_toggles": 1.5}, 1.0),
        _row(0, [], 0, dict(reversed(list(events.items()))), 1.0),
        _row(0, [], "0", events, 1.0),
        "not a row",
        1,
        None,
    ]


def test_foreign_queries_lists_keep_json_dumps_bytes():
    good = _planted_rows()[:3]
    bad = _foreign_rows(good)
    foreign = [
        [],
        [*good, bad[0]],
        [*good, bad[1]],
        *([row] for row in bad[2:10]),
        bad[10:],
        tuple(good),
    ]
    for rows in foreign:
        assert _query_rows_parts(rows) is None
        for doc in (_document(rows), {"queries": rows}):
            assert report_json_text(doc) == _dumps_reference(doc)
    nested = {"inner": {"queries": []}, "queries": good, "tail": "\n  \"queries\": []"}
    assert report_json_text(nested) == _dumps_reference(nested)


def test_one_foreign_row_among_many_keeps_json_dumps_bytes():
    # The checks run column by column over the whole list, so a single
    # flawed row must reject the list wherever it sits, without raising.
    good = _planted_rows(300)
    events = good[0]["events"]
    odd_values = (7, None, "[]")
    bad = [
        *_foreign_rows(good),
        *(_row(0, v, 0, events, 1.0) for v in odd_values),
        *(_row(0, [], 0, v, 1.0) for v in odd_values),
    ]
    assert _query_rows_parts(good) is not None
    for row in bad:
        for rows in ([*good, row], [*good[:150], row, *good[150:]]):
            assert _query_rows_parts(rows) is None
            for doc in (_document(rows), {"queries": rows}):
                assert report_json_text(doc) == _dumps_reference(doc)


def test_non_finite_row_energy_is_rejected(tmp_path):
    rows = _planted_rows()
    path = tmp_path / "report.json"
    for bad in (math.nan, math.inf, -math.inf):
        doc = _document([*rows, {**rows[0], "energy": bad}])
        with pytest.raises(InvalidConfig) as err:
            write_report(doc, path, "json")
        assert isinstance(err.value.__cause__, ValueError)
    assert not path.exists()
