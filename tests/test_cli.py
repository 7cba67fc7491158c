import argparse
import gc
import json
import threading
import weakref
from dataclasses import replace

import pytest

import camsim.array
import camsim.cli
import camsim.energy
import camsim.verify
from camsim import Variant, run_search_stream
from camsim.workload import KEYS_PER_CHUNK
from camsim.cli import _VERBS, _parse_args, build_parser, main


def test_parser_search_defaults():
    args = build_parser().parse_args(["search"])
    assert args.verb == "search"
    assert args.num_words == 256
    assert args.width == 144
    assert args.mle_bits == 3
    assert args.seed == 1
    assert args.queries == 1000
    assert args.workload == "uniform"
    assert args.variant == "selective"
    assert args.out == "-"
    assert args.workers == 1
    assert args.tolerance == 0.005


def test_parser_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--variant", "nand"])


def test_parser_requires_verb():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


_STREAM_FLAGS = [
    "--num", "16", "--width", "12", "--mle-bits", "4", "--seed", "7",
    "--queries", "5", "--workload", "planted", "--match-rate", "0.25",
    "--bias", "0.5", "--words", "w.txt", "--queries-file", "q.txt",
    "--format", "hex", "--model-file", "m.cfg", "--param", "v_dd=0.9",
    "--param", "f=2", "--out", "r.json", "--workers", "3",
]
_CHECK_FLAGS = ["--expect-fraction", "0.2", "--tolerance", "0.01"]
_RICH_ARGV = {
    "search": [*_STREAM_FLAGS, *_CHECK_FLAGS, "--variant", "baseline-nor"],
    "sweep": [*_STREAM_FLAGS, "--k-min", "3", "--k-max", "5"],
    "compare": [*_STREAM_FLAGS, *_CHECK_FLAGS],
    "verify": ["--num-words", "16", "--width", "12", "--mle-bits", "4",
               "--seed", "7", "--trials", "9", "--inject-fault"],
}


@pytest.mark.parametrize("rich", [False, True], ids=["defaults", "flags"])
@pytest.mark.parametrize("verb", _VERBS)
def test_verb_parser_gives_the_full_parsers_namespace(monkeypatch, verb, rich):
    argv = [verb, *(_RICH_ARGV[verb] if rich else [])]
    want = vars(build_parser().parse_args(argv))

    def no_full_parser():
        raise AssertionError("a verb's argv built the full parser")

    monkeypatch.setattr(camsim.cli, "build_parser", no_full_parser)
    assert vars(_parse_args(argv)) == want


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["search", "--bogus"], ["search", "extra"], ["search", "--num-words", "x"],
    ["verify", "--trials"], [], ["bogus"], ["-h"],
    *([verb, "-h"] for verb in _VERBS),
], ids=" ".join)
def test_main_exits_as_the_full_parser_does(monkeypatch, capsys, argv):
    # help, usage and error texts, and exit codes, are the full parser's
    # byte for byte, also when an argument fits no verb and the error
    # shows the top-level usage
    monkeypatch.setenv("COLUMNS", "80")
    want = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert _parse_outcome(main, argv, capsys) == want
    assert want[0] in (0, 2)


@pytest.mark.parametrize("verb", _VERBS)
def test_no_parser_is_alive_when_a_verb_starts(monkeypatch, verb):
    # argparse leaves a help formatter in a reference cycle at every
    # add_argument; main frees them, and its parser, before the verb runs
    parser_types = (argparse.ArgumentParser, argparse.HelpFormatter)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, parser_types)]
    alive = []

    def command(args):
        alive.extend(
            o for o in gc.get_objects()
            if isinstance(o, parser_types) and not any(o is b for b in before)
        )
        return 0

    monkeypatch.setitem(_VERBS, verb, (*_VERBS[verb][:2], command))
    assert main([verb]) == 0
    assert alive == []


def test_search_smoke(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "search", "--num-words", "64", "--width", "32", "--queries", "400",
        "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["report"] == "search"
    assert doc["config"] == {
        "num_words": 64, "word_bits": 32, "mle_bits": 3, "seed": 7,
    }
    assert doc["model"]["c_mle_node"] == 4.0
    assert len(doc["queries"]) == 400
    assert doc["aggregate"]["expected_energized_fraction"] == 0.125
    assert abs(doc["aggregate"]["mean_energized_fraction"] - 0.125) < 0.02
    assert "arbitrary units" in doc["units"]["energy"]


def test_search_planted_every_query_matches(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "search", "--num-words", "16", "--width", "16", "--queries", "50",
        "--workload", "planted", "--match-rate", "1.0", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate"]["queries_with_match"] == 50
    assert all(entry["matches"] for entry in doc["queries"])


def test_search_k1_exits_2_citing_minimum(tmp_path, capsys):
    rc = main(["search", "--mle-bits", "1", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "2" in capsys.readouterr().err


def test_search_missing_words_file_exits_1(tmp_path):
    rc = main(["search", "--words", str(tmp_path / "nope.txt")])
    assert rc == 1


def test_search_malformed_words_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "words.txt"
    bad.write_text("0000\n11x1\n")
    rc = main([
        "search", "--width", "4", "--mle-bits", "2", "--words", str(bad),
        "--queries", "5",
    ])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("words", ["F", "FFF"])
def test_hex_words_at_a_width_of_no_whole_digits_exit_1(tmp_path, capsys, words):
    # 10 bits are no whole number of hex digits, whatever a line holds:
    # the first word line is refused for its width, not its length.
    path = tmp_path / "words.txt"
    path.write_text(f"# ten-bit words\n{words}\n")
    out = tmp_path / "r.json"
    rc = main(["search", "--format", "hex", "--width", "10", "--words", str(path),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: width 10 is not a whole number of hex digits\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep"], ["search", "--mle-bits", "5"], ["compare", "--mle-bits", "5"],
], ids=" ".join)
def test_overflowing_upsize_base_exits_2_without_report(tmp_path, capsys, argv):
    # 1e200 is a valid upsize_base, but 1e200 ** 2 at k = 5 leaves the float
    # range: the energizer energy is inf, and the report is refused
    out = tmp_path / "r.json"
    rc = main([*argv, "--queries", "2", "--param", "upsize_base=1e200",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_search_bad_param_exits_2(tmp_path):
    rc = main(["search", "--param", "bogus=1", "--out", str(tmp_path / "r.json")])
    assert rc == 2


@pytest.mark.parametrize("param", ["v_dd=nan", "upsize_base=inf", "c_ml_per_cell=1e308"])
def test_search_non_finite_model_exits_2_without_report(tmp_path, capsys, param):
    # 1e308 is finite itself but overflows the energy totals to infinity
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "16", "--width", "16", "--queries", "20",
               "--param", param, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_compare_non_finite_model_file_exits_2_without_report(tmp_path):
    model = tmp_path / "model.cfg"
    model.write_text("v_swing_sl = nan\n")
    out = tmp_path / "r.json"
    rc = main(["compare", "--num-words", "16", "--width", "16", "--queries", "20",
               "--model-file", str(model), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_compare_energy_underflow_exits_2_without_report(tmp_path, capsys):
    # Every parameter is valid and positive, but each event's energy rounds
    # to 0, so the baseline energies that the ratios divide by are 0.
    tiny = ["c_ml_per_cell=1e-320", "c_sl_per_cell=1e-320", "c_mle_node=1e-320",
            "v_dd=1e-10", "v_swing_ml=1e-10", "v_swing_sl=1e-10"]
    out = tmp_path / "r.json"
    argv = ["compare", "--num-words", "8", "--width", "8", "--queries", "5",
            "--out", str(out)]
    rc = main(argv + [arg for p in tiny for arg in ("--param", p)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflows to 0" in err


def test_param_bad_decimal_exits_2_without_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "16", "--width", "16", "--queries", "20",
               "--param", "v_dd=fast", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --param: ")


def test_model_file_line_without_equals_exits_2_naming_file_and_line(tmp_path, capsys):
    model = tmp_path / "model.cfg"
    model.write_text("# calibration\nv_dd = 1\nc_ml_per_cell 2\n")
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "16", "--width", "16", "--queries", "20",
               "--model-file", str(model), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert f"{model}: line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--words", "--queries-file", "--model-file"])
def test_undecodable_input_file_exits_1_naming_it(tmp_path, capsys, flag):
    bad = tmp_path / "input.txt"
    bad.write_bytes(b"\xff\xfe0\x001\x00\n")
    out = tmp_path / "r.json"
    rc = main(["search", "--width", "4", "--mle-bits", "2", "--queries", "5",
               flag, str(bad), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("verb", ["search", "compare"])
@pytest.mark.parametrize("tolerance", ["-0.01", "nan"])
def test_bad_tolerance_exits_2_before_any_work(tmp_path, monkeypatch, capsys, verb, tolerance):
    def no_work(*args, **kwargs):
        raise AssertionError("workload generated despite a bad --tolerance")

    monkeypatch.setattr("camsim.cli.gen_words", no_work)
    out = tmp_path / "r.json"
    rc = main([verb, "--queries", "20", "--expect-fraction", "0.125",
               "--tolerance", tolerance, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["search", "compare"])
@pytest.mark.parametrize("expected", ["nan", "inf", "-inf"])
def test_non_finite_expect_fraction_exits_2_before_any_work(
    tmp_path, monkeypatch, capsys, verb, expected
):
    def no_work(*args, **kwargs):
        raise AssertionError("workload generated despite a bad --expect-fraction")

    monkeypatch.setattr("camsim.cli.gen_words", no_work)
    out = tmp_path / "r.json"
    rc = main([verb, "--queries", "20", f"--expect-fraction={expected}",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "--expect-fraction" in capsys.readouterr().err


def test_search_expect_fraction_gate(tmp_path):
    common = [
        "search", "--num-words", "64", "--width", "32", "--queries", "600",
        "--seed", "3", "--out", str(tmp_path / "r.json"),
    ]
    assert main(common + ["--expect-fraction", "0.125", "--tolerance", "0.02"]) == 0
    assert main(common + ["--expect-fraction", "0.5", "--tolerance", "0.02"]) == 1


BOM = "\ufeff"


def test_words_file_with_byte_order_mark(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text(BOM + "1011\n0011\n", encoding="utf-8")
    out = tmp_path / "r.json"
    rc = main(["search", "--width", "4", "--mle-bits", "2", "--words", str(words),
               "--queries", "5", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["num_words"] == 2


def test_model_file_with_byte_order_mark(tmp_path):
    model = tmp_path / "model.cfg"
    model.write_text(BOM + "v_dd = 2\n", encoding="utf-8")
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "16", "--width", "16", "--queries", "20",
               "--model-file", str(model), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["model"]["v_dd"] == 2.0


@pytest.mark.parametrize("fragment", [b"\xef", b"\xef\xbb"], ids=["1-byte", "2-byte"])
@pytest.mark.parametrize("flag", ["--words", "--queries-file", "--model-file"])
def test_a_file_that_is_part_of_a_byte_order_mark_is_not_utf8(
    tmp_path, capsys, flag, fragment
):
    # Part of a mark, and nothing after it, does not decode: an I/O failure
    # on every flag that reads a file, not an empty file or the default model.
    path = tmp_path / "part.txt"
    path.write_bytes(fragment)
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "4", "--width", "8", "--queries", "3",
               flag, str(path), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text (unexpected end of data at byte 0)\n"
    )


# (line 2 of the bad file, the rest of its error message after the line
# number); the ids of the bad-digit cases are the flag alone
_BAD_LINES = {
    "digit": ("10x1", "character 'x' is not a binary digit"),
    "width": ("101", "expected 4 bits (4 binary digits), got 3 digits in '101'"),
}


@pytest.mark.parametrize("bad_flag, bad", [
    pytest.param(flag, bad, id=flag if bad == "digit" else f"{flag}-{bad}")
    for bad in _BAD_LINES for flag in ("--words", "--queries-file")
])
def test_malformed_word_error_names_its_file(tmp_path, capsys, bad_flag, bad):
    line, message = _BAD_LINES[bad]
    files = {}
    for flag in ("--words", "--queries-file"):
        path = tmp_path / (flag.strip("-") + ".txt")
        path.write_text(f"1011\n{line}\n" if flag == bad_flag else "1011\n0011\n")
        files[flag] = path
    out = tmp_path / "r.json"
    rc = main(["search", "--width", "4", "--mle-bits", "2",
               "--words", str(files["--words"]),
               "--queries-file", str(files["--queries-file"]), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {files[bad_flag]}: line 2: {message}\n"


def test_search_words_file_and_variant(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("# store\n10110011\n10111100\n00110011\n")
    out = tmp_path / "r.json"
    rc = main([
        "search", "--width", "8", "--words", str(words), "--queries", "20",
        "--variant", "baseline-nor", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["num_words"] == 3
    assert doc["variant"] == "baseline-nor"
    assert doc["aggregate"]["mean_energized_fraction"] == 1.0


def test_queries_file(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("1011\n0011\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("1011\n1111\n0011\n")
    out = tmp_path / "r.json"
    rc = main([
        "search", "--width", "4", "--mle-bits", "2", "--words", str(words),
        "--queries-file", str(queries), "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["workload"]["kind"] == "file"
    assert [e["matches"] for e in doc["queries"]] == [[0], [], [1]]


def test_workers_flag_starts_no_threads(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("evaluation must not start threads")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "r.json"
    rc = main(["search", "--num-words", "32", "--width", "24", "--workers", "8",
               "--queries", "50", "--out", str(out)])
    assert rc == 0
    assert len(json.loads(out.read_text())["queries"]) == 50


def test_determinism_across_worker_counts(tmp_path):
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["search", "--num-words", "32", "--width", "24", "--queries", "300",
             "--seed", "13"]
    assert main(flags + ["--workers", "1", "--out", str(fa)]) == 0
    assert main(flags + ["--workers", "5", "--out", str(fb)]) == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_sweep_smoke_and_argmin(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--num-words", "128", "--width", "48", "--queries", "1500",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "argmin k = 3" in printed
    assert "model-calibrated" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "k,energized_fraction,energy_metric,mean_delay"
    assert len(lines) == 6


def test_sweep_k_subrange(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--num-words", "32", "--width", "16", "--queries", "100",
        "--k-min", "2", "--k-max", "3", "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_sweep_without_upsizing_argmin_six(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--queries", "3000", "--seed", "5", "--param", "upsize_base=1",
        "--out", str(out),
    ])
    assert rc == 0
    assert "argmin k = 6" in capsys.readouterr().out
    metrics = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert all(b <= a for a, b in zip(metrics, metrics[1:]))


def test_sweep_rejects_bad_k_range(tmp_path):
    assert main(["sweep", "--k-min", "1", "--queries", "10"]) == 2
    assert main(["sweep", "--k-min", "4", "--k-max", "3", "--queries", "10"]) == 2


def test_sweep_checks_only_the_k_values_it_sweeps(tmp_path, capsys):
    # every row sets its own k, so --mle-bits is accepted and unread: a
    # sweep that fits its width runs whatever --mle-bits says, and each k
    # out of range keeps its own message
    base = ["sweep", "--num-words", "8", "--queries", "20"]
    outputs = set()
    for extra in ([], ["--mle-bits", "7"], ["--mle-bits", "1"], ["--mle-bits", "5"]):
        out = tmp_path / "s.csv"
        argv = [*base, "--width", "5", "--k-min", "2", "--k-max", "4", *extra]
        assert main([*argv, "--out", str(out)]) == 0
        outputs.add((out.read_text(), capsys.readouterr().out))
    assert len(outputs) == 1
    assert main([*base, "--width", "3", "--k-min", "2", "--k-max", "2"]) == 0
    capsys.readouterr()
    for flags, message in (
        (["--k-min", "1"], "the energizer needs at least 2 bits, got 1"),
        (["--k-max", "7"], "mle_bits beyond 6 is unsupported"),
        (["--width", "4"], "mle_bits (4) must be smaller than word_bits (4)"),
        (["--width", "3", "--k-min", "3", "--k-max", "3", "--mle-bits", "2"],
         "mle_bits (3) must be smaller than word_bits (3)"),
    ):
        assert main([*base, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_echoes_effective_configuration(tmp_path, capsys):
    rc = main([
        "sweep", "--num-words", "16", "--width", "12", "--queries", "50",
        "--seed", "6", "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "num_words=16" in printed and "seed=6" in printed
    assert "c_mle_node=4" in printed


def test_sweep_empty_queries_file_exits_2(tmp_path, capsys):
    queries = tmp_path / "empty.txt"
    queries.write_text("# no words here\n")
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--queries-file", str(queries), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: query file {queries} holds no words\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["search", "sweep", "compare"])
def test_empty_words_file_exits_2_naming_it(tmp_path, capsys, verb):
    words = tmp_path / "empty.txt"
    words.write_text("# no words here\n\n")
    out = tmp_path / "r.out"
    rc = main([verb, "--words", str(words), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: word file {words} holds no words\n"
    assert not out.exists()


def test_search_prices_each_chunk_once(tmp_path, monkeypatch):
    # The run is priced KEYS_PER_CHUNK searches at a time, in order, and the
    # unit energies are computed once per chunk, never once per query.
    aggregate_calls = []
    unit_calls = []
    real_aggregate = camsim.cli.aggregate
    real_units = camsim.energy._unit_energies

    def counting_aggregate(*args):
        aggregate_calls.append(args)
        return real_aggregate(*args)

    def counting_units(*args):
        unit_calls.append(args)
        return real_units(*args)

    monkeypatch.setattr(camsim.cli, "aggregate", counting_aggregate)
    monkeypatch.setattr(camsim.energy, "_unit_energies", counting_units)
    chunk = KEYS_PER_CHUNK
    for queries, sizes in ((10, [10]), (2 * chunk + 1, [chunk, chunk, 1])):
        del aggregate_calls[:], unit_calls[:]
        rc = main(["search", "--num-words", "32", "--width", "24",
                   "--queries", str(queries), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert [len(args[0]) for args in aggregate_calls] == sizes
        # the worst case's total energy, priced once before the run to
        # refuse an overflow up front, each chunk's prices, then the run's
        # total energy
        assert len(unit_calls) == 1 + len(sizes) + 1


def _word_run_argv(tmp_path, verb, files):
    """A small run of ``verb``, its stored words and queries generated or,
    with ``files``, read from a ``--words`` and a ``--queries-file``."""
    argv = [verb, "--num-words", "16", "--width", "12", "--queries", "20",
            "--out", str(tmp_path / "r")]
    if files:
        for flag, count in (("--words", 16), ("--queries-file", 20)):
            path = tmp_path / (flag.strip("-") + ".txt")
            path.write_text("".join(f"{i * 37 % 4096:012b}\n" for i in range(count)))
            argv += [flag, str(path)]
    return argv


def _new_stores():
    """A function giving each ``Store`` that the collector tracks now and
    did not track when this was called."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, camsim.array.Store)]
    seen = {id(o) for o in before}
    return lambda: [
        o for o in gc.get_objects()
        if isinstance(o, camsim.array.Store) and id(o) not in seen
    ]


@pytest.mark.parametrize("files", [False, True], ids=["generated", "files"])
@pytest.mark.parametrize("verb", ["search", "compare", "sweep"])
def test_the_store_is_alive_when_the_first_stream_runs(
    tmp_path, monkeypatch, verb, files
):
    # the stored words reach the engine as a Store of ints made for this
    # run: when a verb's first stream runs its array's Store is alive,
    # whether the words and queries were drawn or read from word files
    module = camsim.cli if verb == "search" else camsim.energy
    real, first = module.run_search_stream, []

    def stream(arr, *args):
        if not first:
            first.append((arr.values, new_objects()))
        return real(arr, *args)

    monkeypatch.setattr(module, "run_search_stream", stream)
    argv = _word_run_argv(tmp_path, verb, files)
    new_objects = _new_stores()
    assert main(argv) == 0
    ((store, alive),) = first
    assert any(o is store for o in alive)


@pytest.mark.parametrize("files", [False, True], ids=["generated", "files"])
def test_the_store_is_alive_when_search_writes_its_report(tmp_path, monkeypatch, files):
    # search writes its rows as it searches them, so the words' Store, with
    # its dict of addresses, is alive while the report is written, by design
    real, alive = camsim.cli.write_report, []

    def write(document, *args):
        alive.append(new_objects())
        return real(document, *args)

    monkeypatch.setattr(camsim.cli, "write_report", write)
    real_array, stores = camsim.cli.new_array, []

    def array(config, variant, words):
        stores.append(words)
        return real_array(config, variant, words)

    monkeypatch.setattr(camsim.cli, "new_array", array)
    argv = _word_run_argv(tmp_path, "search", files)
    new_objects = _new_stores()
    assert main(argv) == 0
    (store,), (objects,) = stores, alive
    assert any(o is store for o in objects)


def test_sweep_non_finite_metric_exits_2_without_csv(tmp_path, capsys):
    # 1e308 is finite itself but overflows the energy metric to infinity
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--queries", "50", "--param", "c_ml_per_cell=1e308",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_sweep_with_queries_file(tmp_path):
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"{i:012b}\n" for i in range(40)))
    out = tmp_path / "s.csv"
    rc = main([
        "sweep", "--num-words", "16", "--width", "12", "--seed", "6",
        "--queries-file", str(queries), "--k-min", "2", "--k-max", "4",
        "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4


def test_compare_smoke(tmp_path):
    out = tmp_path / "cmp.json"
    rc = main([
        "compare", "--num-words", "64", "--width", "32", "--queries", "500",
        "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["match_sets_identical"] is True
    assert abs(doc["ml_precharge_event_ratio"] - 0.125) < 0.02
    assert doc["ml_energy_ratio"] == pytest.approx(doc["ml_precharge_event_ratio"])
    assert doc["baseline_nor"]["mean_energized_fraction"] == 1.0


def test_compare_frees_the_selective_run_before_the_baseline_stream(
    tmp_path, monkeypatch
):
    # each side's run and array go once its aggregate and match column are
    # taken, so the all-NOR stream does not run beside the selective one
    runs = []

    def watched(arr, *args):
        assert [ref() for ref in runs] == [None] * len(runs)
        run = camsim.array.run_search_stream(arr, *args)
        runs.append(weakref.ref(run))
        return run

    monkeypatch.setattr(camsim.energy, "run_search_stream", watched)
    rc = main([
        "compare", "--num-words", "64", "--width", "32", "--queries", "50",
        "--out", str(tmp_path / "cmp.json"),
    ])
    assert rc == 0 and len(runs) == 2


def test_compare_exits_1_when_the_variants_disagree(tmp_path, monkeypatch, capsys):
    # the all-NOR run's first match set is made to differ from the gated
    # one's: the report is still written, and the check fails
    def altered(arr, keys, *args):
        run = run_search_stream(arr, keys, *args)
        if arr.variant is Variant.SELECTIVE:
            return run
        first = () if run.matches[0] else (0,)
        return replace(run, matches=[first, *run.matches[1:]])

    monkeypatch.setattr(camsim.energy, "run_search_stream", altered)
    out = tmp_path / "cmp.json"
    rc = main([
        "compare", "--num-words", "16", "--width", "12", "--queries", "5",
        "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "check failed: variants disagree on some match set\n"
    )
    assert json.loads(out.read_text())["match_sets_identical"] is False


def test_compare_adversarial_shared_prefix_ratio_one(tmp_path):
    words = tmp_path / "words.txt"
    # every word carries the same 3-bit prefix; queries copy stored words
    words.write_text("".join(f"101{i:05b}\n" for i in range(8)))
    out = tmp_path / "cmp.json"
    rc = main([
        "compare", "--width", "8", "--words", str(words),
        "--workload", "planted", "--match-rate", "1.0", "--queries", "40",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["ml_precharge_event_ratio"] == 1.0


def test_verify_small_scale(capsys):
    rc = main(["verify", "--num-words", "32", "--width", "16", "--trials", "300"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "exhaustive:" in printed and "randomized: 300" in printed


def test_verify_inject_fault_exits_1(capsys):
    rc = main(["verify", "--num-words", "8", "--width", "8", "--trials", "50",
               "--inject-fault"])
    assert rc == 1
    assert "counterexample" in capsys.readouterr().err


def test_verify_prints_the_randomized_line_only_when_the_tier_passes(
    monkeypatch, capsys
):
    # an all-NOR mutant that drops its last match once the store outgrows
    # the exhaustive tier's 32 words fails only in the randomized tier
    def dropping(arr, keys, prev_key=None, *rest):
        run = run_search_stream(arr, keys, prev_key, *rest)
        if arr.variant is Variant.BASELINE_NOR and arr.config.num_words > 32:
            return replace(run, matches=[m[:-1] for m in run.matches])
        return run

    monkeypatch.setattr(camsim.verify, "run_search_stream", dropping)
    assert main(["verify", "--trials", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "exhaustive: 24192 cases checked\n"
    assert "randomized: 200 trials" not in captured.out
    assert "randomized baseline-nor" in captured.err


def test_verify_negative_trials_exits_2_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("verification ran despite a negative --trials")

    monkeypatch.setattr("camsim.cli.verify_exhaustive", no_work)
    rc = main(["verify", "--trials", "-5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "matched" not in captured.out
