"""Byte-level contract for report files and verb stdout.

Each case runs one CLI command from inside ``tests/golden`` (so the input
files are named by relative path and echoed paths stay stable) and compares
every output it produces with a pinned file. Re-pin only for a deliberate
contract change, and record the reason and the diff in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from camsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, pinned files produced). "stdout" names the captured stdout;
# any other pinned file is the report written through --out.
CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "search-planted": (
        ["search", "--num-words", "32", "--width", "24", "--queries", "40",
         "--seed", "5", "--workload", "planted", "--match-rate", "0.5"],
        {"stdout": "search-planted.json"},
    ),
    "compare-skewed": (
        ["compare", "--num-words", "32", "--width", "24", "--queries", "60",
         "--seed", "5", "--workload", "prefix-skewed", "--bias", "0.8"],
        {"stdout": "compare-skewed.json"},
    ),
    "sweep": (
        ["sweep", "--num-words", "32", "--width", "24", "--queries", "60",
         "--seed", "5", "--out", "{tmp}/sweep.csv"],
        {"sweep.csv": "sweep.csv", "stdout": "sweep.stdout"},
    ),
    "sweep-files": (
        ["sweep", "--width", "12", "--words", "words.txt",
         "--queries-file", "queries.txt", "--k-min", "2", "--k-max", "4",
         "--out", "{tmp}/sweep.csv"],
        {"sweep.csv": "sweep-files.csv", "stdout": "sweep-files.stdout"},
    ),
    "verify": (
        ["verify", "--num-words", "16", "--width", "12", "--trials", "50"],
        {"stdout": "verify.stdout"},
    ),
}


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case with cwd at the golden directory; return the bytes of
    each output keyed by its pinned file name."""
    argv, produced = CASES[name]
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc == 0, f"{name}: exit {rc}"
    out = {}
    for source, pinned in produced.items():
        if source == "stdout":
            out[pinned] = stdout.getvalue().encode("utf-8")
        else:
            out[pinned] = (tmp / source).read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_files(name, tmp_path):
    for pinned, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / pinned).read_bytes(), f"{name}: {pinned} differs"


# The search report at the reference geometry (2500 rows, 0.7 MB) is pinned
# by its sha256 instead of a file. The hash was recorded from the json.dumps
# writer, before the query rows were rendered by a template.
REFERENCE_SEARCH_ARGV = [
    "search", "--num-words", "256", "--width", "144", "--mle-bits", "3",
    "--queries", "2500", "--seed", "1", "--workload", "uniform",
]
REFERENCE_SEARCH_SHA256 = (
    "e00d4ad4b7130d3ae54c2ebe6cb895d6c2949079656da2fe7dfb0cda306859b2"
)


def test_reference_search_report_hash(tmp_path):
    out = tmp_path / "search.json"
    assert main([*REFERENCE_SEARCH_ARGV, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 707522
    assert hashlib.sha256(data).hexdigest() == REFERENCE_SEARCH_SHA256


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for pinned, data in run_case(case, Path(scratch)).items():
                (GOLDEN / pinned).write_bytes(data)
                print(f"pinned {pinned} ({len(data)} bytes)", file=sys.stderr)
