"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one summary line (visible with `pytest -s` or on failure)
so a tee'd run doubles as the acceptance record.
"""

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

from camsim import (
    CamConfig,
    EnergyModel,
    Level,
    Variant,
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
    mle_eval,
    new_array,
    run_search_stream,
    search_delay,
    series_depth,
    sum_event_totals,
    sweep_argmin,
    sweep_mle_bits,
    verify_exhaustive,
    verify_randomized,
)
from camsim.cells import (
    CellKind,
    CellState,
    nor_cell_pulls_down,
    xnor_cell_eval,
    xor_cell_eval,
)
from camsim.cli import main

GEOMETRY = CamConfig(num_words=256, word_bits=144, mle_bits=3, seed=1)


def _measured_fraction(k: int, num_queries: int, seed: int) -> float:
    cfg = replace(GEOMETRY, mle_bits=k, seed=seed)
    words = gen_words(cfg.num_words, cfg.word_bits, cfg.seed)
    queries = gen_queries(
        WorkloadSpec(WorkloadKind.UNIFORM, num_queries, seed + 1), words
    )
    arr = new_array(cfg, Variant.SELECTIVE, words)
    totals = sum_event_totals(run_search_stream(arr, queries))
    return totals.ml_precharges / (cfg.num_words * num_queries)


def test_criterion_1_oracle_equivalence():
    exhaustive = verify_exhaustive(seed=0)
    assert exhaustive.ok, exhaustive.counterexample.describe()
    assert exhaustive.cases >= 10_000
    randomized = verify_randomized(GEOMETRY, trials=100_000, seed=0)
    assert randomized.ok, randomized.counterexample.describe()
    assert randomized.cases == 200_000
    print(
        f"CRITERION 1 PASS: {exhaustive.cases} exhaustive cases + "
        f"{randomized.cases} randomized searches (100000 trials, both "
        f"variants), zero oracle mismatches"
    )


def test_criterion_2_energized_fraction():
    frac3 = _measured_fraction(3, 10_000, seed=1)
    assert abs(frac3 - 0.125) <= 0.005
    frac2 = _measured_fraction(2, 10_000, seed=1)
    assert abs(frac2 - 0.25) <= 0.005
    print(
        f"CRITERION 2 PASS: energized fraction {frac3:.5f} (k=3, target "
        f"0.125 +/- 0.005), {frac2:.5f} (k=2, target 0.25 +/- 0.005)"
    )


def test_criterion_3_baseline_comparison():
    words = gen_words(GEOMETRY.num_words, GEOMETRY.word_bits, GEOMETRY.seed)
    queries = gen_queries(WorkloadSpec(WorkloadKind.UNIFORM, 10_000, 2), words)
    sel = run_search_stream(new_array(GEOMETRY, Variant.SELECTIVE, words), queries)
    base = run_search_stream(new_array(GEOMETRY, Variant.BASELINE_NOR, words), queries)
    assert len(sel.matches) == 10_000
    assert sel.matches == base.matches
    ratio = sum_event_totals(sel).ml_precharges / sum_event_totals(base).ml_precharges
    assert abs(ratio - 0.125) <= 0.005
    print(
        f"CRITERION 3 PASS: ML-precharge event ratio {ratio:.5f} "
        f"(target 0.125 +/- 0.005), match sets identical on all 10000 queries"
    )


def test_criterion_4_sweep_shape(tmp_path, capsys):
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 10_000, GEOMETRY.seed)
    rows = sweep_mle_bits(GEOMETRY, EnergyModel(), spec, range(2, 7))
    metric = {r.k: r.energy_metric for r in rows}
    assert metric[2] > metric[3]
    assert metric[3] < metric[4] < metric[5] < metric[6]
    assert sweep_argmin(rows) == 3

    # the emitted report must label the curve as model-calibrated units
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--num-words", "128", "--width", "64", "--queries", "2000",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "model-calibrated" in printed
    assert "argmin k = 3" in printed
    print(
        "CRITERION 4 PASS: energy metric "
        + ", ".join(f"k={k}: {metric[k]:.2f}" for k in sorted(metric))
        + " (argmin 3, labeled model-calibrated)"
    )


def test_criterion_5_cell_truth_tables():
    for stored, bit in product((0, 1), repeat=2):
        xnor = xnor_cell_eval(CellState(stored, CellKind.XNOR), bit)
        xor = xor_cell_eval(CellState(stored, CellKind.XOR), bit)
        pulls = nor_cell_pulls_down(CellState(stored, CellKind.NOR), bit)
        assert (xnor is Level.HIGH) == (stored == bit)
        assert (xor is Level.HIGH) == (stored != bit)
        assert pulls == (stored != bit)

    high = 0
    for stored in product((0, 1), repeat=3):
        for bits in product((0, 1), repeat=3):
            trace = mle_eval(stored, bits)
            assert (trace.ml_en is Level.HIGH) == (stored == bits)
            high += trace.ml_en is Level.HIGH
    assert high == 8
    print(
        "CRITERION 5 PASS: 4-case cell truth tables and 64-case k=3 "
        "energizer table (8 high outcomes)"
    )


def test_criterion_6_delay_model():
    model = EnergyModel()
    depths = [series_depth(replace(GEOMETRY, mle_bits=k)) for k in range(2, 7)]
    assert depths == [k + 2 for k in range(2, 7)]
    assert series_depth(GEOMETRY) == 5
    delays = [
        search_delay(model, replace(GEOMETRY, mle_bits=k)) for k in range(2, 7)
    ]
    assert all(b > a for a, b in zip(delays, delays[1:]))
    print(
        f"CRITERION 6 PASS: series depth k+2 -> {depths}, 5 at k=3, "
        f"delay strictly increasing"
    )


def test_criterion_7_arbitrary_units_stated(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        ["search", "--num-words", "16", "--width", "16", "--queries", "20",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert "arbitrary units" in doc["units"]["energy"]
    assert "series-device units" in doc["units"]["delay"]
    assert any("surrogate" in note for note in doc["notes"])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "arbitrary" in readme
    print(
        "CRITERION 7 PASS: reports and README state that absolute energy/"
        "delay units are arbitrary (documentation-only criterion)"
    )


def test_criterion_8_determinism(tmp_path):
    search_flags = [
        "search", "--num-words", "64", "--width", "40", "--queries", "400",
        "--seed", "21", "--workload", "planted", "--match-rate", "0.25",
    ]
    files = []
    for tag, workers in (("a", "1"), ("b", "3"), ("c", "7")):
        out = tmp_path / f"search-{tag}.json"
        assert main(search_flags + ["--workers", workers, "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]

    sweep_flags = [
        "sweep", "--num-words", "64", "--width", "32", "--queries", "300",
        "--seed", "4",
    ]
    sweeps = []
    for tag, workers in (("a", "1"), ("b", "4")):
        out = tmp_path / f"sweep-{tag}.csv"
        assert main(sweep_flags + ["--workers", workers, "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
    print(
        "CRITERION 8 PASS: byte-identical reports across repeated runs and "
        "worker counts 1/3/7 (search) and 1/4 (sweep)"
    )
