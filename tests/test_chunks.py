"""``camsim search``, ``compare`` and ``sweep`` as chunked pipelines: the
CLI cuts the keys into ``workload.KEYS_PER_CHUNK`` chunks, draws each as it
is read, and searches it with one ``run_search_stream`` call threaded after
the chunk before; ``search`` prices each chunk's run, writes its rows
``QUERY_ROWS_PER_CHUNK`` at a time and keeps running counts, and
``compare`` (both variants) and ``sweep`` (every k) fold each chunk into
running counts with ``energy.stream_totals``. Every report has the same
bytes as runs over whole columns. ``camsim verify``'s randomized tier cuts
its trials with the same chunker, ``verify.TRIALS_PER_CHUNK`` at a time."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import sys
import tempfile
import tracemalloc
import weakref
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camsim.cli
import camsim.energy
import camsim.verify
from camsim import (
    CamConfig,
    EnergyModel,
    Variant,
    WidthMismatch,
    WorkloadKind,
    WorkloadSpec,
    aggregate,
    gen_queries,
    gen_words,
    new_array,
    run_search_stream,
    sum_event_totals,
    verify_randomized,
)
from camsim.cli import (
    _aggregate_dict,
    _make_config,
    _make_model,
    _report_header,
    _search_rows,
    build_parser,
    main,
)
from camsim.energy import sweep_mle_bits
from camsim.verify import TRIALS_PER_CHUNK
from camsim.workload import (
    KEYS_PER_CHUNK,
    QUERY_ROWS_PER_CHUNK,
    QueryRows,
    _key_chunks,
)
from cell_route import oracle_run

WORKLOADS = {
    "uniform": ["--workload", "uniform"],
    "planted": ["--workload", "planted", "--match-rate", "0.5"],
    "prefix-skewed": ["--workload", "prefix-skewed", "--bias", "0.9"],
}
GEOMETRY = ["--num-words", "16", "--width", "24", "--mle-bits", "3", "--seed", "7"]


def _edge_counts(*chunks: int) -> list[int]:
    """1, C - 1, C, C + 1 and 2C + 1 for each chunk size C."""
    return sorted({n for c in chunks for n in (1, c - 1, c, c + 1, 2 * c + 1)})


# Search report sizes around the key chunks and the row pieces.
SEARCH_COUNTS = [1, 31, 32, 33, 511, 512, 513, 1025, 2500]


def _reference_text(argv: list[str], keys: list[int], meta: dict) -> str:
    """The report over whole columns: the keys as one list, one stream, one
    ``aggregate``, and ``json.dumps(indent=2)`` of the document with its
    rows as plain dicts, before its aggregate."""
    args = build_parser().parse_args(argv)
    config, model = _make_config(args), _make_model(args)
    variant = Variant(args.variant)
    words = gen_words(config.num_words, config.word_bits, config.seed)
    run = run_search_stream(new_array(config, variant, words), keys)
    energies = aggregate(run, model, config)
    rows = [
        {
            "index": i,
            "matches": list(matches),
            "energized_count": energized,
            "events": {
                "ml_en_transitions": ml_en,
                "ml_precharges": energized,
                "ml_discharges": energized - len(matches),
                "sl_toggles": sl,
                "mle_evaluations": run.energizers,
            },
            "energy": energy,
        }
        for i, (matches, energized, ml_en, sl, energy) in enumerate(zip(
            run.matches, run.energized, run.ml_en_transitions, run.sl_toggles,
            energies,
        ))
    ]
    document = {
        "report": "search",
        "variant": variant.value,
        **_report_header(args, config, model, meta),
        "queries": rows,
        "aggregate": _aggregate_dict(
            config, model, variant, sum_event_totals(run), len(run),
            len(run) - run.matches.count(()),
        ),
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _search_text(tmp_path, capsys, argv: list[str], out: str) -> str:
    """The report of one search run, written to a file or (``-``) to
    stdout."""
    path = tmp_path / "r.json"
    assert main([*argv, "--out", str(path) if out == "file" else "-"]) == 0
    stdout = capsys.readouterr().out
    if out == "file":
        assert stdout == ""
        return path.read_text(encoding="utf-8")
    assert not path.exists()
    return stdout


def _assert_chunk_heads_are_threaded(text: str, keys: list[int], variant: Variant):
    """The first row of every key and row chunk carries the toggles and
    ML_EN transitions of a search threaded after the previous chunk's last
    key."""
    rows = json.loads(text)["queries"]
    arr = new_array(CamConfig(16, 24, 3, seed=7), variant, gen_words(16, 24, 7))
    for chunk in (KEYS_PER_CHUNK, QUERY_ROWS_PER_CHUNK):
        for i in range(chunk, len(keys), chunk):
            want = oracle_run(arr, keys[i:i + 1], keys[i - 1])
            events = rows[i]["events"]
            assert [events["sl_toggles"]] == want.sl_toggles
            assert [events["ml_en_transitions"]] == want.ml_en_transitions


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("count", SEARCH_COUNTS)
def test_search_report_equals_the_whole_run_at_chunk_edges(
    tmp_path, capsys, workload, variant, count, out
):
    argv = ["search", *GEOMETRY, *WORKLOADS[workload], "--variant", variant,
            "--queries", str(count)]
    text = _search_text(tmp_path, capsys, argv, out)
    spec = camsim.cli._make_workload(build_parser().parse_args(argv))
    keys = gen_queries(spec, gen_words(16, 24, 7))
    assert text == _reference_text(argv, keys, spec.to_dict())
    _assert_chunk_heads_are_threaded(text, keys, Variant(variant))


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_queries_file_goes_through_the_same_chunks(tmp_path, capsys, variant, out):
    words = gen_words(16, 24, 7)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 2 * KEYS_PER_CHUNK + 1, 3, match_rate=0.5)
    keys = gen_queries(spec, words)
    path = tmp_path / "queries.txt"
    path.write_text("".join(format(k, "024b") + "\n" for k in keys))
    argv = ["search", *GEOMETRY, "--queries-file", str(path), "--variant", variant]
    text = _search_text(tmp_path, capsys, argv, out)
    meta = {"kind": "file", "path": str(path), "num_queries": len(keys)}
    assert text == _reference_text(argv, keys, meta)
    _assert_chunk_heads_are_threaded(text, keys, Variant(variant))


def _write_queries(path, count: int) -> list[int]:
    """``count`` planted 24-bit keys, one a line, with a comment line
    between the first and second chunks."""
    spec = WorkloadSpec(WorkloadKind.PLANTED, count, 3, match_rate=0.5)
    keys = gen_queries(spec, gen_words(16, 24, 7))
    lines = [format(k, "024b") for k in keys]
    lines.insert(KEYS_PER_CHUNK, "# the second chunk")
    path.write_text("\n".join(lines) + "\n")
    return keys


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_a_bad_line_in_the_last_chunk_of_a_queries_file_is_refused_up_front(
    tmp_path, capsys, verb, out
):
    # The file is parsed whole before anything is drawn: a bad word in its
    # last chunk is named by its line, and no report byte or file is written.
    path = tmp_path / "queries.txt"
    _write_queries(path, 2 * C + 1)
    lines = path.read_text().split("\n")
    lines[2 * C] = lines[2 * C][:-1] + "2"  # line 2C + 1, key 2C - 1
    path.write_text("\n".join(lines))
    report = tmp_path / "r.json"
    rc = main([verb, *GEOMETRY, "--queries-file", str(path),
               "--out", str(report) if out == "file" else "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {path}: line {2 * C + 1}: character '2' is not a binary digit\n"
    )
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("change", ["fewer", "more"])
@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_a_queries_file_that_changes_between_its_reads_is_refused(
    tmp_path, monkeypatch, capsys, verb, change
):
    # The file is counted, then read again a chunk at a time; the words
    # are generated in between, when it is cut short or grown here.
    path = tmp_path / "queries.txt"
    _write_queries(path, C + 1)
    real = camsim.cli.gen_words

    def edit_then_generate(*args):
        lines = path.read_text().splitlines(keepends=True)
        lines[-1:] = [] if change == "fewer" else [lines[-1], "0" * 24 + "\n"]
        path.write_text("".join(lines))
        return real(*args)

    monkeypatch.setattr(camsim.cli, "gen_words", edit_then_generate)
    rc = main([verb, *GEOMETRY, "--queries-file", str(path),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: changed while it was read: it no longer holds "
        f"{C + 1} words\n"
    )


def _verb_text(tmp_path, capsys, argv: list[str]) -> tuple[str, str]:
    """The report file and stdout of one verb run."""
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), capsys.readouterr().out


def _whole_list_text(tmp_path, monkeypatch, capsys, argv: list[str], count: int):
    """The report and stdout with all ``count`` keys in one chunk: one
    whole-list ``run_search_stream`` per array (compare's two variants,
    sweep's k = 2..6), as before the fold."""
    real, calls = camsim.energy.run_search_stream, []

    def whole_list(arr, keys, prev_key, start):
        calls.append((arr.variant, arr.config.mle_bits, len(keys), prev_key, start))
        return real(arr, keys, prev_key, start)

    with monkeypatch.context() as m:
        m.setattr(camsim.cli, "_key_chunks", partial(_key_chunks, size=count))
        m.setattr(camsim.energy, "run_search_stream", whole_list)
        text = _verb_text(tmp_path, capsys, argv)
    arrays = (
        [(v, 3) for v in Variant] if argv[0] == "compare"
        else [(Variant.SELECTIVE, k) for k in range(2, 7)]
    )
    assert calls == [(*arr, count, None, 0) for arr in arrays]
    return text


def _assert_match_counts(text: str, keys: list[int]):
    """Each side's match counts are the keys' hits on the stored values."""
    values = gen_words(16, 24, 7)
    doc = json.loads(text)
    for side in ("selective", "baseline_nor"):
        agg = doc[side]
        assert agg["queries_with_match"] == sum(k in values for k in keys)
        assert agg["total_matches"] == sum(map(values.count, keys))
    assert doc["match_sets_identical"] is True


@pytest.mark.parametrize("verb", ["compare", "sweep"])
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("count", _edge_counts(KEYS_PER_CHUNK))
def test_compare_report_equals_the_whole_list_runs_at_chunk_edges(
    tmp_path, monkeypatch, capsys, workload, count, verb
):
    argv = [verb, *GEOMETRY, *WORKLOADS[workload], "--queries", str(count)]
    texts = _verb_text(tmp_path, capsys, argv)
    assert texts == _whole_list_text(tmp_path, monkeypatch, capsys, argv, count)
    if verb == "sweep":
        return
    spec = camsim.cli._make_workload(build_parser().parse_args(argv))
    words = gen_words(16, 24, 7)
    keys = gen_queries(spec, words)
    _assert_match_counts(texts[0], keys)
    if workload == "planted" and count == 2 * KEYS_PER_CHUNK + 1:
        # hits on both sides of a chunk boundary, so the folded match
        # counts span chunks
        stored = set(words)
        hits = [i for i, k in enumerate(keys) if k in stored]
        assert hits[0] < KEYS_PER_CHUNK <= hits[-1]


@pytest.mark.parametrize("verb", ["compare", "sweep"])
def test_compare_queries_file_goes_through_the_same_chunks(
    tmp_path, monkeypatch, capsys, verb
):
    spec = WorkloadSpec(WorkloadKind.PLANTED, 2 * KEYS_PER_CHUNK + 1, 3, match_rate=0.5)
    keys = gen_queries(spec, gen_words(16, 24, 7))
    path = tmp_path / "queries.txt"
    path.write_text("".join(format(k, "024b") + "\n" for k in keys))
    argv = [verb, *GEOMETRY, "--queries-file", str(path)]
    texts = _verb_text(tmp_path, capsys, argv)
    assert texts == _whole_list_text(tmp_path, monkeypatch, capsys, argv, len(keys))
    if verb == "compare":
        _assert_match_counts(texts[0], keys)


# ------------------------------------------------------------ draw ranges

_SPECS = {
    "uniform": {},
    "planted": {"match_rate": 0.5},
    "prefix-skewed": {"bias": 0.9},
}


@pytest.mark.parametrize("seed", [0, 1, 97])
@pytest.mark.parametrize("width", [3, 8, 13, 144])
@pytest.mark.parametrize("kind", _SPECS)
def test_a_draw_range_is_that_slice_of_the_whole_column(kind, width, seed):
    total = 70
    spec = WorkloadSpec(WorkloadKind(kind), total, seed, **_SPECS[kind])
    words = gen_words(8, width, seed)
    whole = gen_queries(spec, words)
    assert len(whole) == total
    ranges = [(0, 1), (0, total), (1, 2), (5, 38), (31, 64), (total - 1, total),
              (17, total), (total, total)]
    for start, stop in ranges:
        assert gen_queries(spec, words, start, stop) == whole[start:stop]
    assert gen_queries(spec, words, 17) == whole[17:]
    # Chunks of any size join to the whole column.
    for size in (1, 7, 32):
        parts = [gen_queries(spec, words, s, min(s + size, total))
                 for s in range(0, total, size)]
        assert list(chain.from_iterable(parts)) == whole


@pytest.mark.parametrize("start, stop", [(-1, 3), (4, 3), (0, 71), (71, 71)])
def test_a_draw_range_outside_the_stream_is_refused(start, stop):
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 70, 1)
    with pytest.raises(camsim.InvalidConfig, match=r"query range .* 70 queries"):
        gen_queries(spec, gen_words(8, 8, 1), start, stop)


# ------------------------------------------------------- key errors by chunk

C = KEYS_PER_CHUNK

# (keys, prev_key) -> the first key that is not a 6-bit value, as today's
# KEY_RANGE_CASES, with the bad keys in later chunks.
LATER_CHUNK_CASES = [
    (([1] * (C + 2) + [-5], 0), f"query {C + 2}: key -0x5"),
    (([1] * (2 * C) + [64, 1], None), f"query {2 * C}: key 0x40"),
    (([1] * (C - 1) + [64] + [1] * C, None), f"query {C - 1}: key 0x40"),
    (([1] * C + [-1, 64], 3), f"query {C}: key -0x1"),
    (([1] * C + [64], -2), "previous query: key -0x2"),
    (([63, 0] + [1] * C + [512], 64), "previous query: key 0x40"),
]


def _lazy_chunks(keys, prev_key, drawn):
    """``_key_chunks`` over ``keys``, drawn a chunk at a time into
    ``drawn``, with ``prev_key`` threaded before the first chunk."""
    def draw(start, stop):
        drawn.append((start, stop))
        return keys[start:stop]

    for start, prev, chunk in _key_chunks(len(keys), draw):
        yield start, prev_key if start == 0 else prev, chunk


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("case, message", LATER_CHUNK_CASES)
def test_a_bad_key_in_a_later_chunk_names_its_stream_position(
    variant, case, message, lazy
):
    # One stream over all the keys, or (lazy) the CLI's pipeline, which
    # draws and searches the keys a chunk at a time and draws no chunk
    # after the bad key's.
    keys, prev_key = case
    config, words = CamConfig(4, 6, 2), gen_words(4, 6, 1)
    match = f"^{message} does not fit in word_bits 6$"
    if not lazy:
        with pytest.raises(WidthMismatch, match=match):
            run_search_stream(new_array(config, variant, words), keys, prev_key)
        return
    drawn = []
    with pytest.raises(WidthMismatch, match=match):
        _search_rows(config, EnergyModel(), variant, words,
                     _lazy_chunks(keys, prev_key, drawn), QueryRows(io.StringIO()))
    bad = 0 if message.startswith("previous") else int(message.split()[1][:-1])
    assert drawn == [(s, min(s + C, len(keys))) for s in range(0, bad // C * C + 1, C)]


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_cli_refuses_a_bad_key_in_a_later_chunk_before_writing(
    tmp_path, monkeypatch, capsys, verb, out
):
    # Every verb streams each chunk on its own, names a bad key by its
    # place in the whole stream, and stops drawing at the bad key's chunk.
    # compare and sweep write nothing; search has written the rows of the
    # chunks before the bad key's, which no CLI input reaches: generated
    # keys are in range, and a --queries-file's are checked when it is read.
    real, drawn = camsim.cli.gen_queries, []
    bad_at = C + 3

    def corrupted(spec, words, start=0, stop=None):
        drawn.append((start, stop))
        keys = real(spec, words, start, stop)
        if start <= bad_at < start + len(keys):
            keys[bad_at - start] = -5
        return keys

    monkeypatch.setattr(camsim.cli, "gen_queries", corrupted)
    path = tmp_path / "r.json"
    rc = main([verb, *GEOMETRY, "--queries", str(2 * C + 1),
               "--out", str(path) if out == "file" else "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: query {bad_at}: key -0x5 does not fit in word_bits 24\n"
    )
    assert drawn == [(0, C), (C, 2 * C)]
    if verb != "search":
        assert captured.out == ""
        assert not path.exists()


# Models whose worst case overflows. At 16 x 24, k = 3 and 40 uniform
# queries, the first prices a gated run at a finite energy, since a search
# precharges about 2^-k of the lines, and only the worst case, all of them,
# overflows; the all-NOR run precharges every line and overflows itself.
# The others overflow a unit energy: an energizer grown past any float
# (priced inf, which the all-NOR array, with no energizer, never prices),
# and a searchline toggle that no finite total can hold.
OVERFLOWING_MODELS = {
    "worst-case-only": ["--param", "c_ml_per_cell=1e304"],
    "energizer": ["--mle-bits", "6", "--param", "upsize_base=1e200"],
    "searchlines": ["--param", "c_sl_per_cell=1e307"],
}
OVERFLOW_ARGV = ["search", "--num-words", "16", "--width", "24", "--seed", "7",
                 "--queries", "40"]


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("model,variant", [
    (model, v.value) for model in OVERFLOWING_MODELS for v in Variant
    if (model, v) != ("energizer", Variant.BASELINE_NOR)
])
def test_search_refuses_an_overflowing_worst_case_up_front(
    tmp_path, monkeypatch, capsys, model, variant, out
):
    # The worst case is priced before anything is drawn or searched: one
    # error line, nothing on stdout and no file.
    calls = []
    for name in ("gen_words", "gen_queries", "new_array", "run_search_stream"):
        monkeypatch.setattr(camsim.cli, name, partial(calls.append, name))
    path = tmp_path / "r.json"
    rc = main([*OVERFLOW_ARGV, *OVERFLOWING_MODELS[model], "--variant", variant,
               "--out", str(path) if out == "file" else "-"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report holds a non-finite number: ")
    assert captured.err.count("\n") == 1
    assert not path.exists()
    assert calls == []


@pytest.mark.parametrize("out", ["file", "-"])
def test_an_all_nor_search_prices_no_overflowing_energizer(tmp_path, capsys, out):
    # The all-NOR array evaluates no energizer, so an energizer priced at
    # inf adds nothing to it: the report is the default model's, byte for
    # byte, but for the echoed upsize_base.
    argv = [*OVERFLOW_ARGV, "--variant", "baseline-nor", "--mle-bits", "6"]
    overflowing = [*argv, *OVERFLOWING_MODELS["energizer"]]
    text = _search_text(tmp_path, capsys, overflowing, out)
    default = _search_text(tmp_path, capsys, argv, out)
    assert '"upsize_base": 2.0,' in default
    assert text == default.replace('"upsize_base": 2.0,', '"upsize_base": 1e+200,')


def test_a_refused_worst_case_can_leave_the_run_finite(tmp_path, monkeypatch, capsys):
    # Without the up-front check, as before it, the gated run of the first
    # model writes a finite report within 2^k of overflow.
    monkeypatch.setattr(camsim.cli, "_refuse_overflow", lambda *args: None)
    argv = [*OVERFLOW_ARGV, *OVERFLOWING_MODELS["worst-case-only"]]
    agg = json.loads(_search_text(tmp_path, capsys, argv, "-"))["aggregate"]
    assert 2.0**1023 / 2**3 < agg["energy_total"] < math.inf


@st.composite
def _near_overflow_searches(draw):
    """The flags of a small planted search whose model puts each priced
    class's worst-case energy at a drawn share of the largest float, so
    the worst case lands on either side of overflow."""
    width = draw(st.integers(4, 16))
    k = draw(st.integers(2, min(6, width - 1)))
    words, queries = draw(st.integers(1, 16)), draw(st.integers(1, 40))
    share = st.floats(1e-3, 1.0)
    most = sys.float_info.max / (words * queries)
    params = {
        "c_ml_per_cell": draw(share) * most / (2 * (width - k)),
        "c_sl_per_cell": draw(share) * most / width,
        "c_mle_node": draw(share) * most / (k * 2.0 ** (k - 3)),
    }
    return [
        "search", "--num-words", str(words), "--width", str(width),
        "--mle-bits", str(k), "--seed", str(draw(st.integers(0, 2**16))),
        "--queries", str(queries), "--workload", "planted",
        "--match-rate", str(draw(st.floats(0, 1))),
        "--variant", draw(st.sampled_from([v.value for v in Variant])),
        *(f"--param={key}={value!r}" for key, value in params.items()),
    ]


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(_near_overflow_searches())
def test_a_search_that_passes_the_worst_case_writes_only_finite_numbers(argv):
    # Either the worst case is refused before the first byte, or the whole
    # report is written and every number in it is finite.
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([*argv, "--out", "-"])
    if rc == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: report holds a non-finite number: ")
        return
    assert (rc, err.getvalue()) == (0, "")
    assert _finite_numbers(json.loads(out.getvalue(), parse_constant=float))


@pytest.mark.parametrize("out", ["file", "-"])
def test_search_without_a_usable_temporary_directory_exits_0(
    tmp_path, monkeypatch, capsys, out
):
    # search writes its rows straight into the report, so a tempdir set to
    # a path that is no directory, as here, changes nothing.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(blocker / "spool"))
    argv = ["search", *GEOMETRY, "--queries", "5"]
    text = _search_text(tmp_path, capsys, argv, out)
    assert list(json.loads(text))[-2:] == ["queries", "aggregate"]
    assert capsys.readouterr().err == ""


def test_the_stream_reads_its_keys_a_chunk_at_a_time():
    # A lazy key source is read chunk by chunk: a bad key in chunk 2 stops
    # the pipeline once that chunk is read, long before the source ends.
    config, words = CamConfig(4, 6, 2), gen_words(4, 6, 1)
    read = []

    def draw(start, stop):
        read.extend(range(start, stop))
        return [64 if i == 2 * C + 7 else 1 for i in range(start, stop)]

    with pytest.raises(WidthMismatch, match=f"^query {2 * C + 7}: "):
        _search_rows(config, EnergyModel(), Variant.SELECTIVE, words,
                     _key_chunks(10 * C, draw), QueryRows(io.StringIO()))
    assert read == list(range(3 * C))


@pytest.mark.parametrize("size", [KEYS_PER_CHUNK, TRIALS_PER_CHUNK])
def test_key_chunks_cut_the_stream_at_their_size(size):
    # The verbs' chunks (the default size) and the randomized verify tier's:
    # each chunk is drawn only as it is read, and carries its start and the
    # key before it, as the tier's own loop of range and min cut them.
    for count in [0, *_edge_counts(size), 2 * size]:
        drawn, triples = [], []

        def draw(start, stop):
            drawn.append((start, stop))
            return list(range(start, stop))

        chunks = (_key_chunks(count, draw) if size == KEYS_PER_CHUNK
                  else _key_chunks(count, draw, size))
        for triple in chunks:
            assert len(drawn) == len(triples) + 1
            triples.append(triple)
        starts = range(0, count, size)
        assert drawn == [(s, min(s + size, count)) for s in starts]
        assert triples == [
            (s, s - 1 if s else None, list(range(s, min(s + size, count))))
            for s in starts
        ]


# The counterexample of the inverted-gate mutant on the store and trials
# below: trial 12, the first that copies a stored word, as the randomized
# tier reported it when it cut its trials with a loop of its own.
VERIFY_COUNTEREXAMPLE = (
    "randomized selective: query 101001000101 against [000001101000, "
    "101001000101, 110110110111, 010101011010, 001001011100, 111000100000, "
    "101000000110, 100110001011, 100000011011, 110100101100, 011000110000, "
    "110010010101, 011100011011, 001100111011, 001000001001, 000010010011] "
    "expected [1], got []"
)


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("trials", [1, 31, 32, 33, 64, 65])
def test_verify_trials_at_chunk_edges(monkeypatch, trials, fault):
    # Around the tier's chunk edges, every chunk is streamed on both
    # variants after the last trial of the chunk before, and the verdict
    # is the one the tier gave with its own loop.
    chunks = []

    def recorded(arr, keys, prev_key=None, *rest):
        chunks.append((arr.variant, len(keys), prev_key, keys[-1]))
        return run_search_stream(arr, keys, prev_key, *rest)

    monkeypatch.setattr(camsim.verify, "run_search_stream", recorded)
    out = verify_randomized(CamConfig(16, 12, 3, seed=38), trials, 38, fault)
    ce = out.counterexample
    if fault and trials > 12:
        assert (out.cases, ce.describe()) == (25, VERIFY_COUNTEREXAMPLE)
        return
    assert (out.cases, ce) == (2 * trials, None)
    step = TRIALS_PER_CHUNK
    sizes = [min(step, trials - s) for s in range(0, trials, step)]
    assert [(v, size) for v, size, _, _ in chunks] == [
        (v, size) for size in sizes for v in Variant
    ]
    lasts = [None] + [last for _, _, _, last in chunks[::2]]
    assert [prev for _, _, prev, _ in chunks[::2]] == lasts[:-1]
    assert [prev for _, _, prev, _ in chunks[1::2]] == lasts[:-1]


def test_search_draws_no_key_while_a_stream_runs(tmp_path, monkeypatch):
    # Each chunk is drawn before its stream starts, so the draws and the
    # searches are separate calls, and a span of one never holds the other.
    real_draw, real_stream = camsim.cli.gen_queries, camsim.cli.run_search_stream
    events = []

    def draw(*args):
        events.append("draw")
        return real_draw(*args)

    def stream(*args):
        events.append("stream starts")
        run = real_stream(*args)
        events.append("stream ends")
        return run

    monkeypatch.setattr(camsim.cli, "gen_queries", draw)
    monkeypatch.setattr(camsim.cli, "run_search_stream", stream)
    argv = ["search", *GEOMETRY, "--queries", str(2 * C + 1),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert events == ["draw", "stream starts", "stream ends"] * 3


class _Keys(list):
    """A chunk of keys that can be weakly referenced."""


@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_a_key_chunk_is_freed_before_the_next_is_drawn(tmp_path, monkeypatch, verb):
    # The generator and the verb's loop both let go of a chunk's keys at
    # the end of its step, so two chunks are never alive at once.
    real, chunks = camsim.cli.gen_queries, []

    def draw(spec, words, start=0, stop=None):
        alive = [i for i, ref in enumerate(chunks) if ref() is not None]
        assert alive == [], f"chunks {alive} alive when drawing [{start}, {stop})"
        keys = _Keys(real(spec, words, start, stop))
        chunks.append(weakref.ref(keys))
        return keys

    monkeypatch.setattr(camsim.cli, "gen_queries", draw)
    argv = [verb, *GEOMETRY, *WORKLOADS["prefix-skewed"], "--queries", str(2 * C + 1),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(chunks) == 3


def test_the_chunker_keeps_no_chunk_it_has_yielded():
    # Once it has yielded a chunk, the suspended generator keeps only its
    # last key, so the reader's reference is the chunk's last.
    refs = []

    def draw(start, stop):
        refs.append(weakref.ref(keys := _Keys(range(start, stop))))
        return keys

    for start, prev, keys in _key_chunks(2 * C + 1, draw):
        assert prev == (start - 1 if start else None)
        assert refs[-1]() is keys
        del keys
        assert refs[-1]() is None
    assert len(refs) == 3


def test_search_drops_a_chunk_s_keys_before_it_prices_the_chunk(tmp_path, monkeypatch):
    # search lets go of a chunk's keys once they are searched: no key is
    # alive while the chunk's run is priced and its rows are written.
    real_draw, real_aggregate = camsim.cli.gen_queries, camsim.cli.aggregate
    chunks, alive = [], []

    def draw(spec, words, start=0, stop=None):
        chunks.append(weakref.ref(keys := _Keys(real_draw(spec, words, start, stop))))
        return keys

    def aggregate(run, model, config):
        alive.append([i for i, ref in enumerate(chunks) if ref() is not None])
        return real_aggregate(run, model, config)

    monkeypatch.setattr(camsim.cli, "gen_queries", draw)
    monkeypatch.setattr(camsim.cli, "aggregate", aggregate)
    argv = ["search", *GEOMETRY, "--queries", str(2 * C + 1),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert alive == [[], [], []]


@pytest.mark.parametrize("variant", Variant)
def test_streams_of_the_parts_with_one_index_join_to_the_whole_run(variant):
    # Parts streamed with their start and the previous part's last key, on
    # one array and so one value index, join to the whole stream's run, and
    # a bad key in a part is named by its place in the whole stream.
    config = CamConfig(16, 24, 3)
    words = gen_words(16, 24, 7)
    spec = WorkloadSpec(WorkloadKind.PLANTED, 3 * C + 5, 7, match_rate=0.5)
    keys = gen_queries(spec, words)
    arr = new_array(config, variant, words)
    whole = run_search_stream(arr, keys)
    for size in (1, C - 1, C, 2 * C + 3):
        parts = [
            run_search_stream(arr, keys[s:s + size], keys[s - 1] if s else None, s)
            for s in range(0, len(keys), size)
        ]
        for column in ("matches", "energized", "ml_en_transitions", "sl_toggles"):
            joined = list(chain.from_iterable(getattr(p, column) for p in parts))
            assert joined == getattr(whole, column)
    bad = keys[C + 1:C + 9]
    bad[4] = 1 << 24
    with pytest.raises(WidthMismatch, match=f"^query {C + 5}: key 0x1000000 "):
        run_search_stream(arr, bad, keys[C], C + 1)


@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_a_verb_builds_one_value_index_per_run(index_builds, tmp_path, verb):
    # compare streams 2 variants x 3 chunks here, and sweep one array per k
    # = 2..6; each verb's arrays share one store, so its index is built
    # once, not once per stream.
    argv = [verb, *GEOMETRY, *WORKLOADS["planted"], "--queries", str(2 * C + 1)]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    assert len(index_builds) == 1


# ----------------------------------------------------------- memory growth

def _traced_peak(call) -> int:
    """The traced peak of ``call()``, above what was traced before it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _growth_per_query(tmp_path, verb: str, workload: str) -> float:
    """Bytes a query by which a verb's traced peak grows from 2,000 to
    8,000 queries at the reference geometry. The ``"file"`` workload reads
    uniform keys from a ``--queries-file``, written before the run."""
    def peak(queries: int) -> int:
        if workload == "file":
            path = tmp_path / f"{queries}.txt"
            spec = WorkloadSpec(WorkloadKind.UNIFORM, queries, 1)
            path.write_text("".join(
                f"{key:0144b}\n" for key in gen_queries(spec, gen_words(256, 144, 1))
            ))
            flags = ["--queries-file", str(path)]
        else:
            flags = [*WORKLOADS[workload], "--queries", str(queries)]
        argv = [
            verb, "--num-words", "256", "--width", "144", "--mle-bits", "3",
            "--seed", "1", *flags, "--out", str(tmp_path / "r.json"),
        ]
        return _traced_peak(lambda: main(argv))

    peak(2_000)  # warm every cache the verb fills once
    small, large = peak(2_000), peak(8_000)
    return (large - small) / 6_000


@pytest.mark.parametrize("verb", ["compare", "sweep", "search"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_compare_memory_does_not_grow_with_the_query_count(tmp_path, workload, verb):
    # compare and sweep fold each chunk into running counts only, and
    # search also writes the chunk's rows to its report: no key,
    # column, energy or run outlives its chunk, so the traced peak grows by
    # less than 4 bytes a query (the whole-list compare grew by 74 to 100,
    # the sweep that joined its keys into one list by 87 to 91, and the
    # search that kept the run's columns and energies by about 29).
    assert _growth_per_query(tmp_path, verb, workload) < 4


@pytest.mark.parametrize("verb", ["compare", "search"])
def test_a_queries_file_is_read_in_constant_memory(tmp_path, verb):
    # A --queries-file is counted, then parsed a chunk at a time, a block of
    # lines read at a time: its traced peak grows by less than 4 bytes a
    # query (several hundred when the whole file was read at once).
    assert _growth_per_query(tmp_path, verb, "file") < 4


def test_sweep_spec_mode_draws_a_chunk_at_a_time():
    # sweep_mle_bits given only a WorkloadSpec draws its queries through
    # the CLI's chunker, with the rows of one whole-list chunk, and its
    # traced peak grows by less than 4 bytes a query (107.5 when the whole
    # stream was drawn as one chunk).
    config = CamConfig(256, 144, 3, seed=1)
    words = gen_words(256, 144, 1)

    def rows(spec: WorkloadSpec, chunks=None) -> list:
        return sweep_mle_bits(config, EnergyModel(), spec, range(2, 7), words, chunks)

    def peak(queries: int) -> int:
        return _traced_peak(lambda: rows(WorkloadSpec(WorkloadKind.UNIFORM, queries, 1)))

    peak(2_000)  # warm every cache the sweep fills once
    assert (peak(8_000) - peak(2_000)) / 6_000 < 4
    for kind, params in _SPECS.items():
        spec = WorkloadSpec(WorkloadKind(kind), 2 * C + 1, 1, **params)
        assert rows(spec) == rows(None, [(0, None, gen_queries(spec, words))])
