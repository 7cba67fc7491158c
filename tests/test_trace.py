"""Event-level cross-check: the truth-level per-word traces against the
counting search path, search by search."""

import pytest

import camsim.verify
from camsim import (
    CamConfig,
    Variant,
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
    new_array,
    oracle_search,
    run_search_stream,
    verify_exhaustive,
)
from cell_route import assert_run_equals_searches, assert_traces_explain, searched

# randomized searches per variant and workload at 256 x 144
TRIALS = 50


def test_traces_explain_every_exhaustive_search(monkeypatch):
    # every store and query of the verifier's exhaustive tier, with the
    # previous query threaded as the verifier threads it; each query is
    # searched on both variants against one oracle scan
    searched, scans = [], []

    def checked(arr, query, prev_query=None):
        report = search(arr, query, prev_query)
        assert_traces_explain(report)
        searched.append(report.variant)
        return report

    def counted_oracle(values, key):
        scans.append(key)
        return oracle_search(values, key)

    search = camsim.verify.search
    oracle_search = camsim.verify.oracle_search
    monkeypatch.setattr(camsim.verify, "search", checked)
    monkeypatch.setattr(camsim.verify, "oracle_search", counted_oracle)
    out = verify_exhaustive(1)
    assert out.ok
    assert len(searched) == out.cases == 24192
    assert searched.count(Variant.SELECTIVE) == searched.count(Variant.BASELINE_NOR)
    assert len(scans) == 12096


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize(
    "spec",
    [
        WorkloadSpec(WorkloadKind.PLANTED, TRIALS, 3, match_rate=0.5),
        WorkloadSpec(WorkloadKind.PREFIX_SKEWED, TRIALS, 4, bias=0.9),
    ],
    ids=["planted", "prefix-skewed"],
)
def test_traces_explain_randomized_searches_at_reference_geometry(variant, spec):
    cfg = CamConfig(256, 144, 3, seed=2)
    words = gen_words(cfg.num_words, cfg.word_bits, cfg.seed)
    arr = new_array(cfg, variant, words)
    queries = gen_queries(spec, words)
    reports = searched(arr, queries)
    assert_run_equals_searches(run_search_stream(arr, queries), reports)
    assert len(reports) == TRIALS
    if spec.kind is WorkloadKind.PLANTED:
        assert any(r.matches for r in reports)
    values = [w.value for w in words]
    for report in reports:
        assert report.matches == oracle_search(values, report.query.value)
        assert_traces_explain(report)
