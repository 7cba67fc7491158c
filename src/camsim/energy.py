"""Switching-activity energy accounting and the abstract delay model.

Per-event energy follows E = C * V_DD * V_s with C the switched capacitance
of the event's node class. The activity factor is not a parameter: it is
whatever the simulated event counts say. Absolute outputs are in arbitrary
model-calibrated units; no attempt is made to reproduce technology-level
fJ or picosecond figures.

Delay is counted in series-device units. The gated precharge path runs
through k + 2 stacked devices (2 in the first-stage cell, k - 1 in the
energizer, 1 precharge device), which is 5 at the reference width k = 3;
evaluation overlaps precharge, so one NOR discharge stage is added on top.
The baseline precharges straight from the supply through a single device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from itertools import chain
from operator import add
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .array import (
    CamArray,
    EventTotals,
    SearchRun,
    Store,
    Variant,
    new_array,
    run_search_stream,
    sum_event_totals,
)
from .core import MAX_MLE_BITS, MIN_MLE_BITS, CamConfig
from .errors import (
    InvalidConfig,
    PrefixTooShort,
    ZeroSearches,
)
from .workload import (
    WorkloadSpec,
    _key_chunks,
    content_lines,
    gen_queries,
    gen_words,
    read_text_lines,
)

ENERGY_UNITS_NOTE = (
    "energy values are in model-calibrated arbitrary units; absolute "
    "technology figures (fJ/bit/search, picoseconds) are out of scope"
)
UPSIZE_NOTE = (
    "the per-added-series-device sizing growth (upsize_base) is a modeling "
    "surrogate, not measured device sizing"
)


class EventClass(Enum):
    ML_PRECHARGE = "ml_precharge"
    ML_DISCHARGE = "ml_discharge"
    SL_TOGGLE = "sl_toggle"
    MLE_EVAL = "mle_eval"


@dataclass(frozen=True)
class EnergyModel:
    """Physical-style parameters, all in arbitrary consistent units.

    Defaults are calibrated so that the k-sweep's energy-metric minimum
    lands at the 3-bit reference design; they live here and nowhere else,
    and every report echoes the set in use. ``f`` only scales the optional
    power figure (energy x f), never energy per search.
    """

    c_ml_per_cell: float = 1.0      # match-line drain capacitance per NOR cell
    c_sl_per_cell: float = 0.5      # searchline gate capacitance per cell
    c_mle_node: float = 4.0         # energizer node capacitance at k=3 sizing
    v_dd: float = 1.0
    v_swing_ml: float = 1.0
    v_swing_sl: float = 1.0
    f: float = 1.0
    upsize_base: float = 2.0        # sizing growth per added series device
    delay_per_series_device: float = 1.0
    delay_nor_discharge: float = 1.0

    def __post_init__(self) -> None:
        for name in self.field_names():
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfig(f"{name} must be finite")
        for name in (
            "c_ml_per_cell", "c_sl_per_cell", "c_mle_node",
            "v_dd", "v_swing_ml", "v_swing_sl", "f",
            "delay_per_series_device", "delay_nor_discharge",
        ):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be strictly positive")
        if self.v_swing_ml > self.v_dd:
            raise InvalidConfig("v_swing_ml cannot exceed v_dd")
        if self.v_swing_sl > self.v_dd:
            raise InvalidConfig("v_swing_sl cannot exceed v_dd")
        if self.upsize_base < 1:
            raise InvalidConfig("upsize_base must be >= 1 (1 = no growth)")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def with_assignments(self, items: Iterable[tuple[str, str]]) -> "EnergyModel":
        """Apply ``key = value`` texts in order; each item is ``(where, text)``
        and errors name ``where``. Keys must be field names, values decimal."""
        values = {}
        for where, text in items:
            key, sep, val = (part.strip() for part in text.partition("="))
            if not sep:
                raise InvalidConfig(f"{where}: expected 'key = value', got {text!r}")
            if key not in self.field_names():
                raise InvalidConfig(f"{where}: unknown model parameter {key!r}")
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise InvalidConfig(f"{where}: bad decimal value {val!r}") from exc
        return replace(self, **values)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "EnergyModel":
        """Read a UTF-8 file of ``key = value`` lines; '#' lines and blanks
        are comments."""
        lines = content_lines(read_text_lines(path))
        return cls().with_assignments((f"{path}: line {n}", t) for n, t in lines)


def event_energy(
    model: EnergyModel,
    event_class: EventClass,
    multiplicity: int,
    config: CamConfig,
) -> float:
    """Energy for ``multiplicity`` events of one class.

    Switched capacitance per event: a match-line swing moves the drain
    capacitance of n - k NOR cells, c_ml_per_cell * (n - k), on both
    variants. That is the gated line's NOR chain; the all-NOR line spans n
    NOR cells, as ``trace.word_traces`` models it, but is priced at the
    same n - k. A toggled searchline column drives one gate in every word,
    c_sl_per_cell * N; one energizer evaluation switches k internal nodes
    whose devices grow by upsize_base for every series device beyond the
    k=3 reference. Any ``event_class`` that is not an ``EventClass`` is a
    ValueError.
    """
    if multiplicity < 0:
        raise ValueError(f"multiplicity must be >= 0, got {multiplicity}")
    n, k = config.word_bits, config.mle_bits
    if event_class in (EventClass.ML_PRECHARGE, EventClass.ML_DISCHARGE):
        cap = model.c_ml_per_cell * (n - k)
        swing = model.v_swing_ml
    elif event_class is EventClass.SL_TOGGLE:
        cap = model.c_sl_per_cell * config.num_words
        swing = model.v_swing_sl
    elif event_class is EventClass.MLE_EVAL:
        try:
            growth = model.upsize_base ** (k - 3)
        except OverflowError:  # float ** raises where float * gives inf
            growth = math.inf
        cap = model.c_mle_node * k * growth
        swing = model.v_dd
    else:
        raise ValueError(f"event_class must be an EventClass, got {event_class!r}")
    return cap * model.v_dd * swing * multiplicity


# The classes totals_energy prices, in its summation order.
_PRICED_CLASSES = (
    EventClass.ML_PRECHARGE,
    EventClass.ML_DISCHARGE,
    EventClass.SL_TOGGLE,
    EventClass.MLE_EVAL,
)


def _unit_energies(model: EnergyModel, config: CamConfig) -> tuple[float, ...]:
    """``event_energy`` of one event of each priced class. Multiplying by an
    exact 1 rounds nothing, so unit * m is the float ``event_energy`` gives
    for m events."""
    return tuple([event_energy(model, cls, 1, config) for cls in _PRICED_CLASSES])


def totals_energy(totals: EventTotals, model: EnergyModel, config: CamConfig) -> float:
    """The sum of ``event_energy`` over the priced classes, bit for bit, from
    the unit energies of one event of each class."""
    counts = (
        totals.ml_precharges,
        totals.ml_discharges,
        totals.sl_toggles,
        totals.mle_evaluations,
    )
    if min(counts) < 0:
        raise ValueError(f"event counts must be >= 0, got {counts}")
    pre, dis, sl, mle = _unit_energies(model, config)
    return pre * counts[0] + dis * counts[1] + sl * counts[2] + mle * counts[3]


def series_depth(config: CamConfig, variant: Variant = Variant.SELECTIVE) -> int:
    """Stacked devices on the precharge path: k + 2 for the gated variant,
    a single supply-connected device for the baseline."""
    if variant is Variant.BASELINE_NOR:
        return 1
    return config.mle_bits + 2


def search_delay(
    model: EnergyModel, config: CamConfig, variant: Variant = Variant.SELECTIVE
) -> float:
    """Abstract per-search delay: the precharge chain plus one NOR discharge
    stage. Evaluation overlaps precharge, so nothing else is added."""
    return (
        series_depth(config, variant) * model.delay_per_series_device
        + model.delay_nor_discharge
    )


def aggregate(run: SearchRun, model: EnergyModel, config: CamConfig) -> list[float]:
    """The energy of each search of the run, in order, as a list of floats.
    The unit energies are fetched once per call, and each energy equals
    ``totals_energy`` of that search's event totals bit for bit: the same
    products, summed in the same order. A negative priced count is a
    ValueError, as there, checked once per column. The delay is the same for
    every search of a variant: ``search_delay(model, config, variant)`` for
    the searched array's.

    A search's energy depends on its own counts only, so the run of a chunk
    of keys, searched after the key before it, prices to that slice of the
    whole run's energies. ``camsim search`` prices each chunk's run of
    ``workload.KEYS_PER_CHUNK`` searches and renders its rows at once, so no
    more than a chunk of energies is alive at a time."""
    pre, dis, sl, mle = _unit_energies(model, config)
    discharges = run.ml_discharges
    columns = (run.energized, discharges, run.sl_toggles, [run.energizers])
    for column in columns:
        if min(column, default=0) < 0:
            raise ValueError(f"event counts must be >= 0, got {min(column)}")
    # mle * m is the same product for every search, so it is taken once.
    last = mle * run.energizers
    return [
        pre * p + dis * d + sl * s + last
        for p, d, s in zip(run.energized, discharges, run.sl_toggles)
    ]


def energy_metric(total_energy: float, config: CamConfig, num_searches: int) -> float:
    """Total energy normalized per bit per search."""
    if num_searches < 1:
        raise ZeroSearches(f"num_searches must be >= 1, got {num_searches}")
    return total_energy / (config.word_bits * num_searches)


def stream_totals(arrays: Sequence[CamArray], chunks: Iterable) -> tuple:
    """Sum one chunked key stream over several arrays of one ``Store``.

    ``chunks`` are the ``(start, prev_key, keys)`` triples that
    ``workload._key_chunks`` yields. Every array searches each chunk in turn,
    after the chunk before, and only the running counts and the first
    array's match column outlive a chunk's run: one run is alive at a time,
    and the keys go before the next chunk is drawn. The arrays share one
    store, so the dict of addresses, built on the first stream, serves
    every chunk of all of them. Each stream names a bad key by its place
    in the whole stream.

    Returns each array's ``EventTotals``, each array's count of queries
    with a match, whether every later array's match column equalled the
    first array's, and the search count.
    """
    totals = [EventTotals()] * len(arrays)
    with_match = [0] * len(arrays)
    identical = True
    searches = 0
    for start, prev_key, keys in chunks:
        for side, arr in enumerate(arrays):
            run = run_search_stream(arr, keys, prev_key, start)
            totals[side] = EventTotals(*map(add, totals[side], sum_event_totals(run)))
            with_match[side] += len(run) - run.matches.count(())
            if not side:
                first = run.matches
            identical = identical and run.matches == first
            del run
        searches += len(keys)
        del keys, first  # before the next chunk is drawn
    return totals, with_match, identical, searches


@dataclass(frozen=True)
class SweepRow:
    k: int
    mean_energized_fraction: float
    energy_metric: float
    mean_delay: float


def sweep_mle_bits(
    config: CamConfig,
    model: EnergyModel,
    workload: Optional[WorkloadSpec],
    k_values: Iterable[int],
    words: Optional[Store] = None,
    chunks: Optional[Iterable] = None,
) -> list[SweepRow]:
    """Replay one stored dataset and query stream at each prefix width.

    The words (a ``Store``) are generated once (or passed in) and shared,
    so rows differ only in where the first/second stage boundary sits.
    The queries come as ``chunks``, the ``(start, prev_key, keys)`` triples
    of int keys that ``workload._key_chunks`` yields, or are drawn from
    ``workload`` by that chunker as they are read. Every k's gated array is
    built once over the one store, and ``stream_totals`` folds each chunk
    through all of them, so no more than a chunk of keys is held. Every k
    is checked against the width before any draw, and an empty stream is
    refused before any array is built. The energized fraction is measured
    from the run, never assumed.
    """
    ks = sorted(set(int(k) for k in k_values))
    if not ks:
        raise InvalidConfig("k_values must not be empty")
    if ks[0] < MIN_MLE_BITS:
        raise PrefixTooShort(
            f"the energizer needs at least {MIN_MLE_BITS} bits, got {ks[0]}"
        )
    if ks[-1] > MAX_MLE_BITS:
        raise InvalidConfig(f"mle_bits beyond {MAX_MLE_BITS} is unsupported")
    # every k meets word_bits here, before any draw
    configs = [replace(config, mle_bits=k) for k in ks]
    if words is None:
        words = gen_words(config.num_words, config.word_bits, config.seed)
    if chunks is None:
        if workload is None:
            raise InvalidConfig("sweep needs a workload spec or explicit queries")
        draw = partial(gen_queries, workload, words)
        chunks = _key_chunks(workload.num_queries, draw)
    chunks = iter(chunks)
    head = next(chunks, (0, None, ()))
    if not head[2]:
        raise ZeroSearches("sweep needs at least one query")
    arrays = [new_array(cfg, Variant.SELECTIVE, words) for cfg in configs]
    # the fold alone holds the first chunk, so it goes once searched
    chunks, head = chain(iter([head]), chunks), None
    totals, _, _, searches = stream_totals(arrays, chunks)
    return [
        SweepRow(cfg.mle_bits, side.ml_precharges / (cfg.num_words * searches),
                 energy_metric(totals_energy(side, model, cfg), cfg, searches),
                 search_delay(model, cfg))
        for cfg, side in zip(configs, totals)
    ]


def sweep_argmin(rows: Sequence[SweepRow]) -> int:
    best = min(rows, key=lambda r: r.energy_metric)
    return best.k
