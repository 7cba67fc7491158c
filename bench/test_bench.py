"""Self-tests for the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run as harness  # noqa: E402
import spans  # noqa: E402

camsim = harness.import_camsim()
DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads(harness.PINNED_FILE.read_text())
SEED = harness.PINNED_SEED
SEARCH = harness.WORKLOADS["search-uniform"]
COMPARE = harness.WORKLOADS["compare-skewed"]
VERIFY = harness.WORKLOADS["verify"]


def bindings() -> dict:
    return {
        (m, n): getattr(importlib.import_module(m), n)
        for m, names in spans.IMPORTED.items()
        for n in names
    }


@pytest.fixture(scope="module")
def search_report(tmp_path_factory) -> str:
    workdir = tmp_path_factory.mktemp("search")
    run = harness.run_verb(camsim.cli.main, SEARCH, SEED, workdir, PINNED)
    assert run.rc == 0 and run.problems == []
    return (workdir / "report.json").read_text()


def test_corrupted_event_total_fails_check_and_raises_error_rate(search_report):
    tally = harness.Tally()
    problems, _ = harness.check_run(SEARCH, SEED, 0, "", search_report, PINNED)
    assert problems == []
    tally.record(problems)

    doc = json.loads(search_report)
    doc["aggregate"]["event_totals"]["ml_precharges"] += 1
    problems, _ = harness.check_run(SEARCH, SEED, 0, "", json.dumps(doc), PINNED)
    assert any("ml_precharges" in p for p in problems)
    tally.record(problems)
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)


def test_non_finite_report_is_rejected(search_report):
    doc = json.loads(search_report)
    doc["aggregate"]["mean_power"] = float("nan")
    problems, _ = harness.check_run(SEARCH, 7, 0, "", json.dumps(doc), PINNED)
    assert problems and "NaN" in problems[0]


@pytest.mark.parametrize(
    "workload, values, fragment",
    [
        (SEARCH, dict(PINNED["search-uniform"], mean_energized_fraction=0.131),
         "energized fraction"),
        (COMPARE, dict(PINNED["compare-skewed"], match_sets_identical=False),
         "match_sets_identical"),
        (VERIFY, dict(PINNED["verify"], all_matched=False), "all searches matched"),
        (VERIFY, dict(PINNED["verify"], randomized_trials=None), "randomized trials"),
    ],
)
def test_invariants_catch_bad_output_off_the_pinned_seed(workload, values, fragment):
    assert harness.invariant_problems(workload, PINNED[workload.name]) == []
    problems = harness.invariant_problems(workload, values)
    assert any(fragment in p for p in problems)


def test_reference_scale_pin(tmp_path):
    out = tmp_path / "report.json"
    rc = camsim.cli.main(["search", "--queries", "10000", "--seed", "1", "--out", str(out)])
    agg = json.loads(out.read_text())["aggregate"]
    assert rc == 0
    assert agg["event_totals"]["ml_precharges"] == 320068
    assert agg["mean_energized_fraction"] == 0.1250265625


def test_wrappers_restored_after_traced_run(tmp_path):
    originals = bindings()
    tally = harness.Tally()
    metrics, _, recorded = harness.measure_layers(
        camsim, VERIFY, SEED, 0.01, tmp_path, PINNED, tally
    )
    assert tally.failed == 0 and recorded and metrics["verify.cases"] > 0
    assert all(bindings()[key] is fn for key, fn in originals.items())

    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert bindings()[("camsim.verify", "search")] is not camsim.array.search
            raise RuntimeError
    assert all(bindings()[key] is fn for key, fn in originals.items())


def test_missing_wrapped_name_is_an_error(monkeypatch, capsys):
    originals = bindings()
    monkeypatch.delattr(camsim.cli, "aggregate")
    with pytest.raises(spans.TraceError, match="camsim.cli.aggregate"):
        spans.Tracer().install()
    argv = ["--workload", "verify", "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    assert harness.main(argv) == 3
    assert "correct" not in capsys.readouterr().out
    deleted = ("camsim.cli", "aggregate")
    assert all(
        getattr(importlib.import_module(m), n) is fn
        for (m, n), fn in originals.items()
        if (m, n) != deleted
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace, capsys):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in DECLARED["workloads"]} == set(harness.WORKLOADS)
    assert units == (harness.PER_LAYER if trace else harness.END_TO_END)
    nonzero = set()
    for name in harness.WORKLOADS:
        argv = ["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
        assert harness.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        table = {
            line.split()[0] for line in lines[1:-1]
            if not line.lstrip().startswith(("#", "!"))
        }
        # error_rate is failed / attempted of the result line: a metric that
        # reads 0 on a correct build cannot carry a relative bound.
        assert table == set(units) | {"error_rate"}
        nonzero |= {n for n, m in result["metrics"].items() if m["value"]}

        record = json.loads(
            (harness.RESULTS_DIR / f"{name}-seed1-trace{trace}.json").read_text()
        )
        stamp = record["stamp"]
        assert stamp["seed"] == 1 and stamp["nproc"] >= 1 and stamp["git_revision"]
        assert stamp["geometry"] == {"num_words": 256, "word_bits": 144, "mle_bits": 3}
        assert stamp["python"] and "queries" in stamp and "trials" in stamp
    # every declared metric is measured on at least one workload
    assert nonzero == set(units)


def test_refuses_to_run_without_camsim_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(
            harness.ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("results", "__pycache__"),
        )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no camsim sources" in proc.stderr
