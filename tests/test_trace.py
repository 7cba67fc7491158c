"""Event-level cross-check: the truth-level per-word traces against the
counting search path, search by search."""

import pytest

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
)
from cell_route import assert_run_equals_searches, assert_traces_explain, threaded

# randomized searches per variant and workload at 256 x 144
TRIALS = 50


def test_traces_explain_every_exhaustive_search(exhaustive_tier):
    # every store and query of the verifier's exhaustive tier, searched one
    # by one on both variants with the previous query threaded as the
    # verifier's streams thread it; the verifier itself streams each store
    # once per variant against one oracle scan per query
    out, stores, streams, scans = exhaustive_tier
    traced = 0
    for config, words, queries, _ in stores:
        for variant in Variant:
            arr = new_array(config, variant, words)
            for query, prev in threaded(config.word_bits, queries):
                assert_traces_explain(arr, query, prev)
                traced += 1
    assert out.ok
    assert traced == out.cases == 24192
    assert scans == 12096
    assert len(streams) == 520 and sum(n for _, n in streams) == 24192
    assert [v for v, _ in streams] == [*Variant] * 260


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
    values = [w.value for w in words]
    reports = []
    for query, prev in threaded(cfg.word_bits, queries):
        report, _ = assert_traces_explain(arr, query, prev)
        assert report.matches == oracle_search(values, query.value)
        reports.append(report)
    assert_run_equals_searches(run_search_stream(arr, queries), reports)
    assert len(reports) == TRIALS
    if spec.kind is WorkloadKind.PLANTED:
        assert any(r.matches for r in reports)
