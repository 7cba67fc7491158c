import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim import (
    CamConfig,
    EnergyModel,
    EventClass,
    EventTotals,
    InvalidConfig,
    PrefixTooShort,
    SearchRun,
    Store,
    Variant,
    WorkloadKind,
    WorkloadSpec,
    ZeroSearches,
    aggregate,
    energy_metric,
    event_energy,
    gen_queries,
    gen_words,
    new_array,
    run_search_stream,
    search,
    search_delay,
    series_depth,
    sum_event_totals,
    sweep_argmin,
    sweep_mle_bits,
    totals_energy,
    word_traces,
)
from camsim import energy as energy_module
from cell_route import oracle_run, query_totals

CFG = CamConfig(256, 144, 3, seed=1)


def test_zero_multiplicity_zero_energy():
    model = EnergyModel()
    for cls in EventClass:
        assert event_energy(model, cls, 0, CFG) == 0.0


def test_ml_event_energy_reference_value():
    # one precharge at unit parameters sweeps the 141-cell drain chain
    model = EnergyModel(c_ml_per_cell=1.0, v_dd=1.0, v_swing_ml=1.0)
    assert event_energy(model, EventClass.ML_PRECHARGE, 1, CFG) == 141.0
    assert event_energy(model, EventClass.ML_DISCHARGE, 2, CFG) == 282.0


@pytest.mark.parametrize("variant", Variant)
def test_a_match_line_event_is_priced_at_n_minus_k_cells_on_both_variants(variant):
    # As the code prices it: a match-line precharge or discharge moves
    # c_ml_per_cell * (n - k) on either variant. The all-NOR line spans all
    # n NOR cells, as its trace shows by discharging through a prefix bit,
    # but it is priced at the same n - k.
    n, k = 24, 3
    cfg = CamConfig(2, n, k)
    arr = new_array(cfg, variant, Store([0, 1 << (n - 1)], n))
    query = 0
    totals = sum_event_totals(run_search_stream(arr, [query]))
    ml_events = totals.ml_precharges + totals.ml_discharges
    assert ml_events == (1 if variant is Variant.SELECTIVE else 3)
    ml_only = totals._replace(sl_toggles=0, mle_evaluations=0)
    assert totals_energy(ml_only, EnergyModel(), cfg) == ml_events * (n - k)
    if variant is Variant.BASELINE_NOR:
        assert word_traces(arr, query)[1].discharging_bit == 0


def test_sl_event_energy_scales_with_word_count():
    model = EnergyModel(c_sl_per_cell=0.5)
    assert event_energy(model, EventClass.SL_TOGGLE, 1, CFG) == 0.5 * 256
    assert event_energy(model, EventClass.SL_TOGGLE, 3, CFG) == 1.5 * 256


def test_mle_event_energy_with_upsizing():
    model = EnergyModel(c_mle_node=2.0, upsize_base=2.0)
    for k in range(2, 7):
        cfg = replace(CFG, mle_bits=k)
        want = 2.0 * k * 2.0 ** (k - 3)
        assert event_energy(model, EventClass.MLE_EVAL, 1, cfg) == pytest.approx(want)


def test_mle_event_energy_overflows_to_infinity():
    # a valid upsize_base whose growth leaves the float range prices an
    # energizer evaluation at inf, as an overflowing product does, instead
    # of raising OverflowError from float **
    model = EnergyModel(upsize_base=1e200)
    energy = {
        k: event_energy(model, EventClass.MLE_EVAL, 1, replace(CFG, mle_bits=k))
        for k in (4, 5)
    }
    assert energy == {4: 4.0 * 4 * 1e200, 5: math.inf}


def test_no_energizer_evaluation_is_zero_energy_even_when_the_unit_overflows():
    # inf * 0 is NaN; no evaluation is 0.0, as totals_energy and aggregate
    # price an all-NOR run's energizer term. Only the energizer has the rule:
    # the other classes still give inf * 0 for an overflowing unit.
    cfg = replace(CFG, mle_bits=5)
    model = EnergyModel(upsize_base=1e300)
    assert event_energy(model, EventClass.MLE_EVAL, 1, cfg) == math.inf
    assert event_energy(model, EventClass.MLE_EVAL, 0, cfg) == 0.0
    huge = EnergyModel(c_sl_per_cell=1e308)
    assert event_energy(huge, EventClass.SL_TOGGLE, 1, CFG) == math.inf
    assert math.isnan(event_energy(huge, EventClass.SL_TOGGLE, 0, CFG))


def test_ml_energy_is_linear_in_swing():
    half = EnergyModel(v_swing_ml=0.5)
    full = EnergyModel(v_swing_ml=1.0)
    e_half = event_energy(half, EventClass.ML_PRECHARGE, 7, CFG)
    e_full = event_energy(full, EventClass.ML_PRECHARGE, 7, CFG)
    assert e_full == pytest.approx(2 * e_half)


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        event_energy(EnergyModel(), EventClass.SL_TOGGLE, -1, CFG)


@pytest.mark.parametrize("event_class", ["ml_precharge", "mle_eval", None, 3])
def test_event_class_outside_the_enum_rejected(event_class):
    # Such a value used to be priced silently as an energizer evaluation.
    with pytest.raises(ValueError, match="must be an EventClass"):
        event_energy(EnergyModel(), event_class, 1, CFG)


def test_model_validation():
    with pytest.raises(InvalidConfig):
        EnergyModel(c_ml_per_cell=0)
    with pytest.raises(InvalidConfig):
        EnergyModel(v_swing_ml=1.5, v_dd=1.0)
    with pytest.raises(InvalidConfig):
        EnergyModel(upsize_base=0.5)
    for name in EnergyModel.field_names():
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
                EnergyModel(**{name: bad})


def test_model_from_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "# calibration\n"
        "c_ml_per_cell = 2.5\n"
        "upsize_base = 1\n"
        "\n"
        "v_swing_sl = 0.25\n"
    )
    model = EnergyModel.from_file(path)
    assert model.c_ml_per_cell == 2.5
    assert model.upsize_base == 1.0
    assert model.v_swing_sl == 0.25
    assert model.c_mle_node == EnergyModel().c_mle_node  # untouched default


def test_model_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("c_ml = 1\n")
    with pytest.raises(InvalidConfig):
        EnergyModel.from_file(path)


def test_model_from_file_rejects_bad_value(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("c_ml_per_cell = fast\n")
    with pytest.raises(InvalidConfig):
        EnergyModel.from_file(path)


def test_with_assignments_applies_in_order_and_names_where():
    model = EnergyModel().with_assignments(
        [("a", "v_dd = 2"), ("b", " v_swing_ml=1.5 "), ("c", "v_dd=3")]
    )
    assert (model.v_dd, model.v_swing_ml) == (3.0, 1.5)
    assert EnergyModel().with_assignments([]) == EnergyModel()
    for text in ("v_dd", "bogus = 1", "v_dd = fast"):
        with pytest.raises(InvalidConfig, match="^--param: "):
            EnergyModel().with_assignments([("--param", text)])


# ------------------------------------------------------------------ delay


def test_series_depth_reference():
    assert series_depth(CFG) == 5  # 2 cell + 2 energizer + 1 precharge devices
    assert series_depth(CFG, Variant.BASELINE_NOR) == 1


def test_delay_strictly_increasing_in_k():
    model = EnergyModel()
    delays = [
        search_delay(model, replace(CFG, mle_bits=k)) for k in range(2, 7)
    ]
    assert delays == sorted(delays)
    assert all(b > a for a, b in zip(delays, delays[1:]))
    assert delays[1] == 5 * model.delay_per_series_device + model.delay_nor_discharge


# -------------------------------------------------------------- aggregate


def _array(config, variant):
    words = gen_words(config.num_words, config.word_bits, config.seed)
    return new_array(config, variant, words)


def _run(config, variant, num_queries, seed=3, model=None):
    arr = _array(config, variant)
    spec = WorkloadSpec(WorkloadKind.UNIFORM, num_queries, seed)
    queries = gen_queries(spec, arr.values)
    return run_search_stream(arr, queries), queries


def test_aggregate_fills_energy():
    cfg = CamConfig(16, 12, 3, seed=5)
    run, queries = _run(cfg, Variant.SELECTIVE, 10)
    model = EnergyModel()
    energies = aggregate(run, model, cfg)
    assert len(energies) == len(run) == 10
    first = sum_event_totals(oracle_run(_array(cfg, Variant.SELECTIVE), queries[:1]))
    assert energies[0] == pytest.approx(totals_energy(first, model, cfg))


@pytest.mark.parametrize("variant", list(Variant))
def test_aggregate_prices_a_run_bit_for_bit(variant):
    cfg = CamConfig(32, 24, 3, seed=5)
    run, queries = _run(cfg, variant, 60)
    model = EnergyModel(c_ml_per_cell=0.7, c_sl_per_cell=0.3, upsize_base=1.5)
    energies = aggregate(run, model, cfg)
    totals = query_totals(oracle_run(_array(cfg, variant), queries))
    assert len(energies) == len(totals)
    for e, t in zip(energies, totals):
        assert type(e) is float
        assert e.hex() == totals_energy(t, model, cfg).hex()


def test_aggregate_takes_any_sequence_columns():
    cfg = CamConfig(16, 12, 3, seed=5)
    run, _ = _run(cfg, Variant.SELECTIVE, 10)
    empty = SearchRun(run.energizers, (), (), (), ())
    assert aggregate(empty, EnergyModel(), cfg) == []
    as_tuples = SearchRun(
        run.energizers, tuple(run.matches), tuple(run.energized),
        tuple(run.ml_en_transitions), tuple(run.sl_toggles),
    )
    assert aggregate(as_tuples, EnergyModel(), cfg) == aggregate(
        run, EnergyModel(), cfg
    )


def test_aggregate_rejects_negative_counts():
    cfg = CamConfig(16, 12, 3, seed=5)
    run, _ = _run(cfg, Variant.SELECTIVE, 3)
    bad_toggles = replace(run, sl_toggles=[*run.sl_toggles[:1], -1, *run.sl_toggles[2:]])
    # more matches than energized lines: a negative discharge count
    bad_discharges = replace(run, matches=[*run.matches[:2], (0,) * 99])
    for bad in (bad_toggles, bad_discharges):
        with pytest.raises(ValueError, match="event counts must be >= 0"):
            aggregate(bad, EnergyModel(), cfg)


def test_zero_event_report_has_zero_energy():
    from camsim import EventTotals

    assert totals_energy(EventTotals(), EnergyModel(), CFG) == 0.0


def test_ml_energy_proportionality():
    cfg = CamConfig(64, 24, 3, seed=11)
    model = EnergyModel()
    run, _ = _run(cfg, Variant.SELECTIVE, 200)
    totals = sum_event_totals(run)
    ml = event_energy(
        model, EventClass.ML_PRECHARGE, totals.ml_precharges, cfg
    ) + event_energy(model, EventClass.ML_DISCHARGE, totals.ml_discharges, cfg)
    want = (
        (totals.ml_precharges + totals.ml_discharges)
        * model.c_ml_per_cell
        * (cfg.word_bits - cfg.mle_bits)
        * model.v_dd
        * model.v_swing_ml
    )
    assert ml == pytest.approx(want)


def test_energy_additivity_over_split_streams():
    cfg = CamConfig(32, 16, 3, seed=2)
    model = EnergyModel()
    words = gen_words(32, 16, 2)
    queries = gen_queries(WorkloadSpec(WorkloadKind.UNIFORM, 40, 7), words)
    arr = new_array(cfg, Variant.SELECTIVE, words)
    whole = run_search_stream(arr, queries)
    first = run_search_stream(arr, queries[:23])
    second = run_search_stream(arr, queries[23:], prev_key=queries[22])
    e_whole = totals_energy(sum_event_totals(whole), model, cfg)
    e_split = totals_energy(sum_event_totals(first), model, cfg) + totals_energy(
        sum_event_totals(second), model, cfg
    )
    assert e_whole == pytest.approx(e_split)


def test_selective_never_exceeds_baseline_ml_energy():
    cfg = CamConfig(64, 20, 3, seed=13)
    model = EnergyModel()
    sel, queries = _run(cfg, Variant.SELECTIVE, 100)
    base_arr = new_array(
        cfg, Variant.BASELINE_NOR, gen_words(cfg.num_words, cfg.word_bits, cfg.seed)
    )
    base = run_search_stream(base_arr, queries)
    def ml_energy(run):
        t = sum_event_totals(run)
        return event_energy(model, EventClass.ML_PRECHARGE, t.ml_precharges, cfg) + \
            event_energy(model, EventClass.ML_DISCHARGE, t.ml_discharges, cfg)
    assert ml_energy(sel) <= ml_energy(base)


def test_ml_precharge_energy_ratio_near_one_eighth():
    # Monte Carlo: the gated array spends ~1/8 of the baseline's ML charge
    model = EnergyModel()
    sel, queries = _run(CFG, Variant.SELECTIVE, 3000)
    base_arr = new_array(CFG, Variant.BASELINE_NOR, gen_words(256, 144, CFG.seed))
    base = run_search_stream(base_arr, queries)
    e_sel = event_energy(
        model, EventClass.ML_PRECHARGE, sum_event_totals(sel).ml_precharges, CFG
    )
    e_base = event_energy(
        model, EventClass.ML_PRECHARGE, sum_event_totals(base).ml_precharges, CFG
    )
    assert e_sel / e_base == pytest.approx(0.125, abs=0.008)


# ----------------------------------------------------------------- metric


def test_energy_metric_definition():
    assert energy_metric(144.0, CFG, 1) == 1.0
    assert energy_metric(0.0, CFG, 5) == 0.0
    assert energy_metric(288.0, CFG, 2) == 1.0
    # linear in total energy at a fixed denominator
    assert energy_metric(500.0, CFG, 4) == pytest.approx(
        5 * energy_metric(100.0, CFG, 4)
    )


def test_energy_metric_zero_searches():
    with pytest.raises(ZeroSearches):
        energy_metric(1.0, CFG, 0)


# ------------------------------------------------------------------ sweep


def test_sweep_rejects_an_empty_query_stream():
    # a CamError once the fold counts no search; it used to be a bare
    # ZeroDivisionError from the energized fraction
    with pytest.raises(ZeroSearches):
        sweep_mle_bits(CFG, EnergyModel(), None, [3], chunks=[])


def test_sweep_rejects_a_first_chunk_with_no_keys():
    with pytest.raises(ZeroSearches):
        sweep_mle_bits(CFG, EnergyModel(), None, [3], chunks=[(0, None, [])])


def test_sweep_checks_every_k_against_the_width_before_any_array(monkeypatch):
    # k = 5 does not fit a 5-bit word; k = 2, 3 and 4 used to be searched
    # over the whole stream before the error
    built = []
    build = energy_module.new_array

    def recording(cfg, *args):
        built.append(cfg.mle_bits)
        return build(cfg, *args)

    monkeypatch.setattr(energy_module, "new_array", recording)
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 10, 1)
    with pytest.raises(InvalidConfig, match="smaller than word_bits"):
        sweep_mle_bits(CamConfig(16, 5, 3, seed=1), EnergyModel(), spec, range(2, 7))
    assert built == []


def test_sweep_measures_halving_fractions():
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 4000, 21)
    rows = sweep_mle_bits(CFG, EnergyModel(), spec, range(2, 7))
    expected = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    for row, want in zip(rows, expected):
        assert row.mean_energized_fraction == pytest.approx(want, abs=0.01)


def test_sweep_default_shape_and_argmin():
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 4000, 5)
    rows = sweep_mle_bits(CFG, EnergyModel(), spec, range(2, 7))
    metrics = {r.k: r.energy_metric for r in rows}
    assert metrics[2] > metrics[3]
    assert metrics[3] < metrics[4] < metrics[5] < metrics[6]
    assert sweep_argmin(rows) == 3
    delays = [r.mean_delay for r in rows]
    assert all(b > a for a, b in zip(delays, delays[1:]))


def test_sweep_without_upsizing_is_non_increasing():
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 4000, 5)
    rows = sweep_mle_bits(CFG, EnergyModel(upsize_base=1.0), spec, range(2, 7))
    metrics = [r.energy_metric for r in rows]
    assert all(b <= a for a, b in zip(metrics, metrics[1:]))
    assert sweep_argmin(rows) == 6


def test_sweep_argmin_stays_at_three_for_wider_words():
    for n in (64, 144):
        cfg = CamConfig(256, n, 3, seed=4)
        spec = WorkloadSpec(WorkloadKind.UNIFORM, 3000, 4)
        rows = sweep_mle_bits(cfg, EnergyModel(), spec, range(2, 7))
        assert sweep_argmin(rows) == 3


def test_sweep_replays_identical_inputs_per_k():
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 300, 8)
    rows_a = sweep_mle_bits(CFG, EnergyModel(), spec, [2, 3])
    rows_b = sweep_mle_bits(CFG, EnergyModel(), spec, [3, 2])
    assert rows_a == rows_b  # sorted by k, same data either way


def test_sweep_validates_k_range():
    spec = WorkloadSpec(WorkloadKind.UNIFORM, 10, 0)
    with pytest.raises(PrefixTooShort):
        sweep_mle_bits(CFG, EnergyModel(), spec, [1, 2])
    with pytest.raises(InvalidConfig):
        sweep_mle_bits(CFG, EnergyModel(), spec, [3, 7])
    with pytest.raises(InvalidConfig):
        sweep_mle_bits(CFG, EnergyModel(), spec, [])


def test_power_is_energy_times_frequency_only():
    # f never changes per-search energy, only the optional power figure
    cfg = CamConfig(16, 12, 3, seed=5)
    run, _ = _run(cfg, Variant.SELECTIVE, 20)
    slow = aggregate(run, EnergyModel(f=1.0), cfg)
    fast = aggregate(run, EnergyModel(f=4.0), cfg)
    assert slow == fast


# totals_energy as it was before unit energies: one event_energy call per
# class. The unit-energy form must give the same float, bit for bit.
def _four_call_energy(totals, model, config):
    return (
        event_energy(model, EventClass.ML_PRECHARGE, totals.ml_precharges, config)
        + event_energy(model, EventClass.ML_DISCHARGE, totals.ml_discharges, config)
        + event_energy(model, EventClass.SL_TOGGLE, totals.sl_toggles, config)
        + event_energy(model, EventClass.MLE_EVAL, totals.mle_evaluations, config)
    )


_SCALE = st.floats(1e-3, 1e3)
_FRACTION = st.floats(0.01, 1.0)
_MODELS = st.builds(
    lambda c_ml, c_sl, c_mle, v_dd, s_ml, s_sl, up: EnergyModel(
        c_ml, c_sl, c_mle, v_dd, v_dd * s_ml, v_dd * s_sl, upsize_base=up
    ),
    _SCALE, _SCALE, _SCALE, st.floats(0.1, 10.0), _FRACTION, _FRACTION,
    st.floats(1.0, 4.0),
)
_CONFIGS = st.integers(2, 6).flatmap(
    lambda k: st.builds(
        CamConfig, st.integers(1, 4096), st.integers(k + 1, 512), st.just(k)
    )
)
_COUNT = st.one_of(st.just(0), st.integers(0, 10**6), st.integers(0, 2**62))
_TOTALS = st.builds(EventTotals, _COUNT, _COUNT, _COUNT, _COUNT, _COUNT)
_BASE_CONFIG = CamConfig(16, 12, 3, seed=5)
_BASE_WORDS = gen_words(16, 12, 5)
_BASE_ARRAY = new_array(_BASE_CONFIG, Variant.SELECTIVE, _BASE_WORDS)
_BASE_RUN = search(_BASE_ARRAY, 5)


def _priced_columns(totals):
    """A stand-in run of one search whose priced counts are ``totals``'s:
    the columns that ``aggregate`` reads."""
    return SimpleNamespace(
        energized=[totals.ml_precharges],
        ml_discharges=[totals.ml_discharges],
        sl_toggles=[totals.sl_toggles],
        energizers=totals.mle_evaluations,
    )


@settings(max_examples=200, deadline=None)
@given(_TOTALS, _MODELS, _CONFIGS)
def test_unit_energies_are_bit_equal_to_four_event_energy_calls(totals, model, cfg):
    want = _four_call_energy(totals, model, cfg).hex()
    assert totals_energy(totals, model, cfg).hex() == want
    (energy,) = aggregate(_priced_columns(totals), model, cfg)
    assert energy.hex() == want


# Models at the edges of the float range: a capacitance from subnormal to
# near the largest float, swings up to V_DD, and an upsize_base whose growth
# overflows to inf at k >= 4. A unit energy may then be 0 or inf, and an inf
# unit times a count of 0 is NaN.
_CAPACITANCE = st.floats(1e-320, 1e308)
_EDGE_MODELS = st.builds(
    lambda c_ml, c_sl, c_mle, v_dd, s_ml, s_sl, up: EnergyModel(
        c_ml, c_sl, c_mle, v_dd, v_dd * s_ml, v_dd * s_sl, upsize_base=up
    ),
    _CAPACITANCE, _CAPACITANCE, _CAPACITANCE, st.floats(1e-3, 1e3),
    st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1.0, 1e300),
)


def _one_search(k_gated, num_words, word_bits, pre, dis, toggles):
    """A config and the counts of one search on it: gated (N energizer
    evaluations) or all-NOR (none)."""
    k, gated = k_gated
    pre = min(pre, num_words)
    totals = EventTotals(
        0, pre, min(dis, pre), min(toggles, word_bits), num_words if gated else 0
    )
    return CamConfig(num_words, max(word_bits, k + 1), k), totals


_COUNT_4096 = st.integers(0, 4096)
_K_GATED = st.sampled_from([(k, g) for k in range(2, 7) for g in (True, False)])
_ONE_SEARCH = st.builds(
    _one_search, _K_GATED, st.integers(1, 4096), st.integers(3, 512),
    _COUNT_4096, _COUNT_4096, _COUNT_4096,
)


def _same_float(a, b):
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(_ONE_SEARCH, _EDGE_MODELS)
def test_the_three_pricing_entries_agree_bit_for_bit(search_totals, model):
    cfg, totals = search_totals
    counts = (
        totals.ml_precharges, totals.ml_discharges,
        totals.sl_toggles, totals.mle_evaluations,
    )
    # event_energy over every priced class, summed left to right
    terms = [
        event_energy(model, cls, m, cfg)
        for cls, m in zip(energy_module._PRICED_CLASSES, counts)
    ]
    want = terms[0]
    for term in terms[1:]:
        want += term
    energy = totals_energy(totals, model, cfg)
    assert _same_float(energy, want)
    matched = totals.ml_precharges - totals.ml_discharges
    run = SearchRun(
        totals.mle_evaluations, [(0,) * matched], [totals.ml_precharges],
        [totals.ml_en_transitions], [totals.sl_toggles],
    )
    (priced,) = aggregate(run, model, cfg)
    assert _same_float(priced, energy)


def test_totals_energy_rejects_negative_counts():
    with pytest.raises(ValueError):
        totals_energy(EventTotals(0, 0, 0, -1, 0), EnergyModel(), CFG)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4095), max_size=40), st.sampled_from(list(Variant)))
def test_sum_event_totals_equals_chained_add(values, variant):
    arr = new_array(_BASE_CONFIG, variant, _BASE_WORDS)
    per_search = query_totals(oracle_run(arr, values))
    # field by field, from zero counts, over the per-search totals
    want = EventTotals(*map(sum, zip(EventTotals(), *per_search)))
    total = sum_event_totals(run_search_stream(arr, values))
    assert total == want
    assert type(total) is EventTotals


def test_sum_event_totals_of_no_reports_is_zero():
    empty = run_search_stream(_BASE_ARRAY, [])
    assert sum_event_totals(empty) == EventTotals()
    assert type(sum_event_totals(empty)) is EventTotals


@settings(max_examples=40, deadline=None)
@given(_TOTALS)
def test_records_are_immutable_hashable_values(totals):
    for name in totals._fields:
        with pytest.raises(AttributeError):
            setattr(totals, name, getattr(totals, name))
    copy = EventTotals(*totals)
    assert copy == totals and hash(copy) == hash(totals)
    # a search's run is frozen too, though its columns are lists
    for name in ("energizers", *SearchRun.COLUMNS):
        with pytest.raises(AttributeError):
            setattr(_BASE_RUN, name, getattr(_BASE_RUN, name))
