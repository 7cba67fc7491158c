"""``camsim search``, ``compare`` and ``sweep`` as chunked pipelines: the
CLI cuts the keys into ``workload.KEYS_PER_CHUNK`` chunks, draws each as it
is read, and searches it with one ``run_search_stream`` call threaded after
the chunk before; ``search`` prices each chunk's run, spools its rows
``QUERY_ROWS_PER_CHUNK`` at a time and keeps running counts, and
``compare`` (both variants) and ``sweep`` (every k) fold each chunk into
running counts with ``energy.stream_totals``. Every report has the same
bytes as runs over whole columns."""

from __future__ import annotations

import gc
import json
import math
import tempfile
import tracemalloc
import weakref
from itertools import chain

import pytest

import camsim.cli
import camsim.energy
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
)
from camsim.cli import (
    _aggregate_dict,
    _make_config,
    _make_model,
    _report_header,
    _spool_search,
    build_parser,
    main,
)
from camsim.energy import sweep_mle_bits
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
    rows as plain dicts."""
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
        "aggregate": _aggregate_dict(
            config, model, variant, sum_event_totals(run), len(run),
            len(run) - run.matches.count(()),
        ),
        "queries": rows,
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
        m.setattr(camsim.workload, "KEYS_PER_CHUNK", count)
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
        _spool_search(config, EnergyModel(), variant, words,
                      _lazy_chunks(keys, prev_key, drawn), QueryRows())
    bad = 0 if message.startswith("previous") else int(message.split()[1][:-1])
    assert drawn == [(s, min(s + C, len(keys))) for s in range(0, bad // C * C + 1, C)]


@pytest.fixture
def spools(tmp_path, monkeypatch):
    """The temporary files a verb opens, in a directory of their own: each
    must be closed, and the directory empty, when the test ends."""
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    real, opened = tempfile.TemporaryFile, []

    def recording(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    yield opened
    assert all(spool.closed for spool in opened)
    assert list(spool_dir.iterdir()) == []


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_cli_refuses_a_bad_key_in_a_later_chunk_before_writing(
    tmp_path, monkeypatch, capsys, spools, verb, out
):
    # Every verb streams each chunk on its own, names a bad key by its
    # place in the whole stream, and stops drawing at the bad key's chunk.
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
    assert captured.out == ""
    assert captured.err == (
        f"error: query {bad_at}: key -0x5 does not fit in word_bits 24\n"
    )
    assert not path.exists()
    assert drawn == [(0, C), (C, 2 * C)]
    assert len(spools) == (verb == "search")  # and closed, by the fixture


@pytest.mark.parametrize("out", ["file", "-"])
@pytest.mark.parametrize("header", [False, True])
def test_search_refuses_a_non_finite_energy_in_a_later_chunk(
    tmp_path, monkeypatch, capsys, spools, header, out
):
    # The rows are spooled before the header is built, yet the refusal
    # names the number json.dumps of the whole document would name: the
    # header's inf before the rows' nan. Nothing is written and the spool
    # is closed.
    real, chunks = camsim.cli.aggregate, []

    def priced(run, model, config):
        energies = real(run, model, config)
        chunks.append(len(run))
        if len(chunks) == 2:
            energies[3] = math.nan
        return energies

    monkeypatch.setattr(camsim.cli, "aggregate", priced)
    if header:
        monkeypatch.setattr(camsim.cli, "totals_energy", lambda *args: math.inf)
    path = tmp_path / "r.json"
    rc = main(["search", *GEOMETRY, "--queries", str(2 * C + 1),
               "--out", str(path) if out == "file" else "-"])
    assert rc == 2
    assert chunks == [C, C, 1]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: report holds a non-finite number: Out of range float values "
        f"are not JSON compliant: {'inf' if header else 'nan'}\n"
    )
    assert not path.exists()
    assert len(spools) == 1


@pytest.mark.parametrize("out", ["file", "-"])
def test_search_without_a_usable_temporary_directory_exits_1(
    tmp_path, monkeypatch, capsys, out
):
    # Python skips a TMPDIR it cannot write to and falls back to the next
    # usable directory; with none, or a tempdir set to a path that is no
    # directory, as here, opening the spool fails before any report byte.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(blocker / "spool"))
    path = tmp_path / "r.json"
    rc = main(["search", *GEOMETRY, "--queries", "5",
               "--out", str(path) if out == "file" else "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not path.exists()


def test_the_stream_reads_its_keys_a_chunk_at_a_time():
    # A lazy key source is read chunk by chunk: a bad key in chunk 2 stops
    # the pipeline once that chunk is read, long before the source ends.
    config, words = CamConfig(4, 6, 2), gen_words(4, 6, 1)
    read = []

    def draw(start, stop):
        read.extend(range(start, stop))
        return [64 if i == 2 * C + 7 else 1 for i in range(start, stop)]

    with pytest.raises(WidthMismatch, match=f"^query {2 * C + 7}: "):
        _spool_search(config, EnergyModel(), Variant.SELECTIVE, words,
                      _key_chunks(10 * C, draw), QueryRows())
    assert read == list(range(3 * C))


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
    8,000 queries at the reference geometry."""
    def peak(queries: int) -> int:
        argv = [
            verb, "--num-words", "256", "--width", "144", "--mle-bits", "3",
            "--seed", "1", *WORKLOADS[workload], "--queries", str(queries),
            "--out", str(tmp_path / "r.json"),
        ]
        return _traced_peak(lambda: main(argv))

    peak(2_000)  # warm every cache the verb fills once
    small, large = peak(2_000), peak(8_000)
    return (large - small) / 6_000


@pytest.mark.parametrize("verb", ["compare", "sweep", "search"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_compare_memory_does_not_grow_with_the_query_count(tmp_path, workload, verb):
    # compare and sweep fold each chunk into running counts only, and
    # search also spools the chunk's rows to a temporary file: no key,
    # column, energy or run outlives its chunk, so the traced peak grows by
    # less than 4 bytes a query (the whole-list compare grew by 74 to 100,
    # the sweep that joined its keys into one list by 87 to 91, and the
    # search that kept the run's columns and energies by about 29).
    assert _growth_per_query(tmp_path, verb, workload) < 4


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
