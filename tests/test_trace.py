"""Event-level cross-check: the truth-level per-word traces against the
counting search engine, search by search."""

import pytest

from camsim import (
    CamConfig,
    Variant,
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
    new_array,
    run_search_stream,
)
from cell_route import (
    assert_run_is_oracle_run,
    assert_traces_explain,
    one_key_runs,
    oracle_run,
    threaded,
)

# randomized searches per variant and workload at 256 x 144
TRIALS = 50


def test_traces_explain_every_exhaustive_search(exhaustive_tier):
    # every store and query of the verifier's exhaustive tier, streamed on
    # both variants as the verifier streams it, each search's row traced
    # with the previous query threaded; the verifier itself streams each
    # store once per variant against one oracle scan per query
    out, stores, streams, scans = exhaustive_tier
    traced = 0
    for config, store, queries, _ in stores:
        for variant in Variant:
            arr = new_array(config, variant, store)
            rows = one_key_runs(run_search_stream(arr, queries))
            for (query, prev), row in zip(threaded(config.word_bits, queries), rows):
                assert_traces_explain(arr, query, prev, row)
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
    run = run_search_stream(arr, queries)
    assert_run_is_oracle_run(run, arr, queries)
    rows = one_key_runs(oracle_run(arr, queries))
    for (query, prev), row in zip(threaded(cfg.word_bits, queries), rows):
        assert_traces_explain(arr, query, prev, row)
    assert len(rows) == TRIALS
    if spec.kind is WorkloadKind.PLANTED:
        assert any(run.matches)
