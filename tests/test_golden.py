"""Byte-level contract: report files, verb stdout and stderr, exit codes.

Each case runs one CLI command from inside ``tests/golden`` (so the input
files are named by relative path and echoed paths stay stable), checks its
exit code and compares every output it produces with a pinned file; stderr
must be empty unless the case pins it. The counterexamples that the
verifier reports for an injected fault are pinned too. Re-pin only for a
deliberate contract change, and record the reason and the diff in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from camsim import CamConfig, verify_exhaustive, verify_randomized
from camsim.cli import main
from camsim.workload import WorkloadKind, WorkloadSpec, gen_queries, gen_words

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, pinned files produced, exit code). "stdout" and "stderr" name
# the captured streams; any other pinned file is the report written through
# --out.
CASES: dict[str, tuple[list[str], dict[str, str], int]] = {
    "search-planted": (
        ["search", "--num-words", "32", "--width", "24", "--queries", "40",
         "--seed", "5", "--workload", "planted", "--match-rate", "0.5"],
        {"stdout": "search-planted.json"},
        0,
    ),
    "search-baseline": (
        ["search", "--num-words", "32", "--width", "24", "--queries", "40",
         "--seed", "5", "--workload", "planted", "--match-rate", "0.5",
         "--variant", "baseline-nor"],
        {"stdout": "search-baseline.json"},
        0,
    ),
    "compare-skewed": (
        ["compare", "--num-words", "32", "--width", "24", "--queries", "60",
         "--seed", "5", "--workload", "prefix-skewed", "--bias", "0.8"],
        {"stdout": "compare-skewed.json"},
        0,
    ),
    "sweep": (
        ["sweep", "--num-words", "32", "--width", "24", "--queries", "60",
         "--seed", "5", "--out", "{tmp}/sweep.csv"],
        {"sweep.csv": "sweep.csv", "stdout": "sweep.stdout"},
        0,
    ),
    "sweep-files": (
        ["sweep", "--width", "12", "--words", "words.txt",
         "--queries-file", "queries.txt", "--k-min", "2", "--k-max", "4",
         "--out", "{tmp}/sweep.csv"],
        {"sweep.csv": "sweep-files.csv", "stdout": "sweep-files.stdout"},
        0,
    ),
    "verify": (
        ["verify", "--num-words", "16", "--width", "12", "--trials", "50"],
        {"stdout": "verify.stdout"},
        0,
    ),
    "verify-fault": (
        ["verify", "--num-words", "16", "--width", "12", "--trials", "50",
         "--inject-fault"],
        {"stdout": "verify-fault.stdout", "stderr": "verify-fault.stderr"},
        1,
    ),
}


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case with cwd at the golden directory; return the bytes of
    each output keyed by its pinned file name."""
    argv, produced, code = CASES[name]
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(streams["stdout"]), \
                contextlib.redirect_stderr(streams["stderr"]):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc == code, f"{name}: exit {rc}, expected {code}"
    if "stderr" not in produced:
        assert streams["stderr"].getvalue() == "", f"{name}: unexpected stderr"
    out = {}
    for source, pinned in produced.items():
        if source in streams:
            out[pinned] = streams[source].getvalue().encode("utf-8")
        else:
            out[pinned] = (tmp / source).read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_files(name, tmp_path):
    for pinned, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / pinned).read_bytes(), f"{name}: {pinned} differs"


def test_sweep_to_stdout_writes_its_csv_then_its_summary(capsys):
    # With --out -, the sweep case's stdout is its pinned CSV followed by
    # its pinned summary lines, byte for byte.
    argv = ["-" if a == "{tmp}/sweep.csv" else a for a in CASES["sweep"][0]]
    assert "-" in argv
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (
        (GOLDEN / "sweep.csv").read_bytes() + (GOLDEN / "sweep.stdout").read_bytes()
    )


# The CLI stops at the first exhaustive counterexample, so the verifier's
# fault outcomes are pinned through the library too: one line per run with
# its case count, the counterexample's expected and got addresses, and the
# sha256 of its describe() text (a 256 x 144 store describes in 37 KB).
FAULT_SEEDS = (0, 1, 5, 97)
FAULT_GEOMETRIES = ((8, 8, 3), (64, 20, 2), (256, 144, 3), (32, 16, 4))
FAULT_TRIALS = 400
FAULT_PINS = "fault-counterexamples.txt"


def fault_outcomes() -> bytes:
    runs = [
        (f"exhaustive seed={s}", verify_exhaustive(s, fault=True))
        for s in FAULT_SEEDS
    ]
    for num_words, width, k in FAULT_GEOMETRIES:
        for s in FAULT_SEEDS:
            cfg = CamConfig(num_words, width, k, seed=s)
            runs.append((
                f"randomized {num_words}x{width} k={k} seed={s}",
                verify_randomized(cfg, FAULT_TRIALS, s, fault=True),
            ))
    lines = []
    for label, out in runs:
        ce = out.counterexample
        digest = hashlib.sha256(ce.describe().encode("utf-8")).hexdigest()
        lines.append(
            f"{label}: cases={out.cases} expected={list(ce.expected)} "
            f"got={list(ce.got)} sha256={digest}\n"
        )
    return "".join(lines).encode("utf-8")


def test_fault_counterexamples_match_golden_file():
    assert fault_outcomes() == (GOLDEN / FAULT_PINS).read_bytes()


# The search reports at the reference geometry (2500 rows, 0.7 MB) are
# pinned by their size and sha256 instead of a file. The uniform one, with
# the default model, has no hits and whole-number energies. It was re-pinned
# when "aggregate" moved after "queries", so that the rows are written as
# they are searched. The planted one, with a model whose energies are not
# whole numbers (19672.199999999997, for one), has 1189 rows with a hit,
# spread over every key chunk; it was pinned from the str-template renderer.
REFERENCE_SEARCH_ARGV = [
    "search", "--num-words", "256", "--width", "144", "--mle-bits", "3",
    "--queries", "2500", "--seed", "1", "--workload", "uniform",
]
REFERENCE_PLANTED_ARGV = [
    "search", "--num-words", "256", "--width", "144", "--mle-bits", "3",
    "--queries", "2500", "--seed", "97", "--workload", "planted",
    "--match-rate", "0.5", "--param", "c_ml_per_cell=0.3",
    "--param", "c_sl_per_cell=0.7",
]
REFERENCE_SEARCH_SHA256 = {
    "uniform": (
        707522, "6f4e17dd7b7085d17085a7d5db2240f83b21da1ade81e611fdb565becb09f159"
    ),
    "planted": (
        736710, "b450e40ebfc5186d25375b3f3fa537861406d7af14d0440a98894b3a16cd30ca"
    ),
}

# The sha256 of each search report as it was pinned with "aggregate" before
# "queries", from the json.dumps writer, before the query rows were rendered
# by a template.
AGGREGATE_FIRST_SHA256 = {
    "search-baseline.json":
        "f9cd77579ab3b55c043ca84ba9c14a347761a4cd0c711567dce1a660405f0b51",
    "search-planted.json":
        "bff944301fb5297a9b9ed6101519fd85ba097ad8eecc27cf5eee3ee9118712e1",
    "reference": "e00d4ad4b7130d3ae54c2ebe6cb895d6c2949079656da2fe7dfb0cda306859b2",
}


@pytest.fixture(scope="module")
def reference_search_reports(tmp_path_factory) -> dict[str, bytes]:
    """Each reference search report's bytes, by case, written once for this
    module."""
    scratch = tmp_path_factory.mktemp("reference")
    reports = {}
    for case, argv in (("uniform", REFERENCE_SEARCH_ARGV),
                       ("planted", REFERENCE_PLANTED_ARGV)):
        out = scratch / f"{case}.json"
        assert main([*argv, "--out", str(out)]) == 0
        reports[case] = out.read_bytes()
    return reports


@pytest.mark.parametrize("case", sorted(REFERENCE_SEARCH_SHA256))
def test_reference_search_report_hash(case, reference_search_reports):
    data = reference_search_reports[case]
    size, digest = REFERENCE_SEARCH_SHA256[case]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(AGGREGATE_FIRST_SHA256))
def test_search_reports_parse_to_their_aggregate_first_documents(
    name, reference_search_reports
):
    # The re-pinned reports differ from the aggregate-first ones only in
    # where "aggregate" sits: each parses to the same document, which
    # json.dumps, with "aggregate" back before "queries", writes as the
    # bytes that were pinned.
    data = (reference_search_reports["uniform"] if name == "reference"
            else (GOLDEN / name).read_bytes())
    document = json.loads(data)
    assert list(document)[-2:] == ["queries", "aggregate"]
    queries = document.pop("queries")
    text = json.dumps({**document, "queries": queries}, indent=2) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == AGGREGATE_FIRST_SHA256[name]


# The prefix-skewed query streams and the compare report at the reference
# geometry, bias 0.9, 1000 queries (the only other skewed pin is 32 x 24 at
# bias 0.8). Recorded from the generator that tested each 32-bit draw word
# against the threshold as an unpacked integer, before the flips were cut
# from the words' top bytes.
REFERENCE_SKEWED_QUERIES_SHA256 = {
    1: "1fadfe56b7d5617138a32044af749fc14076578c7c0fa4d9c40a1651c47daffc",
    97: "bba6c52b75823ae5173fe345c1d275aa3bbe6eb06f63586b2cd678d393fbe7e0",
}
REFERENCE_COMPARE_ARGV = [
    "compare", "--num-words", "256", "--width", "144", "--mle-bits", "3",
    "--queries", "1000", "--seed", "1", "--workload", "prefix-skewed",
    "--bias", "0.9",
]
REFERENCE_COMPARE_SHA256 = (
    "21a251c757f023756d1d9201698df92e5c7508037805132133650fcb821ad171"
)


@pytest.mark.parametrize("seed", sorted(REFERENCE_SKEWED_QUERIES_SHA256))
def test_reference_skewed_queries_hash(seed):
    words = gen_words(256, 144, seed)
    spec = WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 1000, seed, bias=0.9)
    text = "".join(format(v, "0144b") + "\n" for v in gen_queries(spec, words))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == REFERENCE_SKEWED_QUERIES_SHA256[seed]


def test_reference_compare_report_hash(tmp_path):
    out = tmp_path / "compare.json"
    assert main([*REFERENCE_COMPARE_ARGV, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 2045
    assert hashlib.sha256(data).hexdigest() == REFERENCE_COMPARE_SHA256


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for pinned, data in run_case(case, Path(scratch)).items():
                (GOLDEN / pinned).write_bytes(data)
                print(f"pinned {pinned} ({len(data)} bytes)", file=sys.stderr)
    data = fault_outcomes()
    (GOLDEN / FAULT_PINS).write_bytes(data)
    print(f"pinned {FAULT_PINS} ({len(data)} bytes)", file=sys.stderr)
