"""Command-line entry point: search, sweep, compare, verify.

Exit codes: 0 success, 1 for I/O or check failures, 2 for bad flags or
configuration. Reports go to the file named by --out ('-' for stdout);
diagnostics go to stderr. Identical flags and seed produce byte-identical
report files. search writes its rows as it searches them, and its
aggregate last. Evaluation is single-threaded; --workers is still accepted
so existing command lines keep working, and its value has no effect.
"""

from __future__ import annotations

import argparse
import gc
import math
import shutil
import sys
from dataclasses import asdict, replace
from functools import partial
from itertools import islice
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .array import (
    EventTotals,
    Variant,
    new_array,
    run_search_stream,
    sum_event_totals,
)
from .core import MIN_MLE_BITS, CamConfig
from .energy import (
    ENERGY_UNITS_NOTE,
    UPSIZE_NOTE,
    EnergyModel,
    EventClass,
    aggregate,
    energy_metric,
    event_energy,
    search_delay,
    stream_totals,
    sweep_argmin,
    sweep_mle_bits,
    totals_energy,
)
from .errors import BadDigit, CamError, InvalidConfig, WidthMismatch
from .mle import expected_energized_fraction
from .verify import verify_exhaustive, verify_randomized
from .workload import (
    QueryRows,
    WorkloadKind,
    WorkloadSpec,
    _json_text,
    _key_chunks,
    gen_queries,
    gen_words,
    load_words,
    parse_words,
    query_summary,
    read_text_lines,
    write_report,
)

DELAY_UNITS_NOTE = "delay is in abstract series-device units"

# Exit code per error class, first match wins: I/O failures and malformed
# word files are 1, any other simulator error is a bad flag or config, 2.
_EXIT_CODES: dict[type[Exception], int] = {
    OSError: 1,
    WidthMismatch: 1,
    BadDigit: 1,
    CamError: 2,
}


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--num-words", type=int, default=256,
                   help="stored word count N (default 256)")
    p.add_argument("--width", type=int, default=144,
                   help="word width n in bits (default 144)")
    p.add_argument("--mle-bits", type=int, default=3,
                   help="energizer prefix width k (default 3)")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1)")


def _add_stream_flags(p: argparse.ArgumentParser) -> None:
    """The flags of a verb that prices a query stream: geometry, workload,
    energy model and run flags, in that order."""
    _add_geometry_flags(p)
    p.add_argument("--queries", type=int, default=1000,
                   help="number of generated queries (default 1000)")
    p.add_argument("--workload", choices=[k.value for k in WorkloadKind],
                   default="uniform", help="query distribution")
    p.add_argument("--match-rate", type=float, default=0.5,
                   help="planted workload: probability a query copies a stored word")
    p.add_argument("--bias", type=float, default=0.9,
                   help="prefix-skewed workload: per-bit agreement probability")
    p.add_argument("--words", metavar="FILE", default=None,
                   help="load stored words from FILE instead of generating "
                        "(the file's word count overrides --num-words)")
    p.add_argument("--queries-file", metavar="FILE", default=None,
                   help="load queries from FILE instead of generating")
    p.add_argument("--format", choices=["bin", "hex"], default="bin",
                   help="word file text format (default bin)")
    p.add_argument("--model-file", metavar="FILE", default=None,
                   help="energy model parameters, one 'key = value' per line")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="override one energy model parameter (repeatable)")
    p.add_argument("--out", default="-",
                   help="report destination file, '-' for stdout (default)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; evaluation is "
                        "single-threaded and the value has no effect")


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expect-fraction", type=float, default=None,
                   help="fail (exit 1) unless the measured energized fraction "
                        "is within --tolerance of this value")
    p.add_argument("--tolerance", type=float, default=0.005,
                   help="absolute tolerance for --expect-fraction (default 0.005)")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    _add_stream_flags(p)
    _add_check_flags(p)
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default="selective", help="array organization")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    _add_stream_flags(p)
    p.add_argument("--k-min", type=int, default=2, help="first prefix width (default 2)")
    p.add_argument("--k-max", type=int, default=6, help="last prefix width (default 6)")


def _add_compare_flags(p: argparse.ArgumentParser) -> None:
    _add_stream_flags(p)
    _add_check_flags(p)


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    _add_geometry_flags(p)
    p.add_argument("--trials", type=int, default=100000,
                   help="randomized trials at the configured geometry, each "
                        "searched on both variants (default 100000)")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip every energizer decision to prove the harness "
                        "detects a corrupted build")


def _formatter() -> Callable[..., argparse.HelpFormatter]:
    # argparse builds a help formatter at every add_argument, and each one
    # asks the terminal for its width; the width argparse would take, read
    # once per parser, gives the same help text.
    return partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``camsim`` parser, with a subparser for every verb."""
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="camsim",
        description="Behavioral simulator of a prefix-gated match-line CAM "
                    "with switching-activity energy accounting.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, add_flags, command) in _VERBS.items():
        p = sub.add_parser(verb, formatter_class=formatter, help=text)
        add_flags(p)
        p.set_defaults(func=command)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named verb's
    parser when ``argv[0]`` is a verb. It is built as the full parser
    builds that verb's subparser, with the same prog, flags and defaults,
    so it gives the same namespace, help and errors. Only the error for
    arguments that no verb takes shows the top-level usage, so on any
    leftover argument the full parser parses again and exits with it."""
    entry = _VERBS.get(argv[0]) if argv else None
    if entry is None:
        return build_parser().parse_args(argv)
    _, add_flags, command = entry
    parser = argparse.ArgumentParser(
        prog=f"camsim {argv[0]}", formatter_class=_formatter()
    )
    add_flags(parser)
    parser.set_defaults(verb=argv[0], func=command)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        return build_parser().parse_args(argv)
    return args


def _make_config(args: argparse.Namespace) -> CamConfig:
    return CamConfig(
        num_words=args.num_words,
        word_bits=args.width,
        mle_bits=args.mle_bits,
        seed=args.seed,
    )


def _make_model(args: argparse.Namespace) -> EnergyModel:
    model = EnergyModel.from_file(args.model_file) if args.model_file else EnergyModel()
    return model.with_assignments(("--param", item) for item in args.param)


def _make_workload(args: argparse.Namespace) -> WorkloadSpec:
    kind = WorkloadKind(args.workload)
    return WorkloadSpec(
        kind=kind,
        num_queries=args.queries,
        seed=args.seed,
        match_rate=args.match_rate if kind is WorkloadKind.PLANTED else None,
        bias=args.bias if kind is WorkloadKind.PREFIX_SKEWED else None,
    )


def _refuse_empty(kind: str, path: str, count: int) -> None:
    if not count:
        raise InvalidConfig(f"{kind} file {path} holds no words")


def _file_keys(
    keys: Iterator[int], path: str, count: int, start: int, stop: int
) -> list[int]:
    """Keys ``start`` .. ``stop`` - 1 of a ``--queries-file`` of ``count``
    keys: the next ``stop - start`` of ``keys``, its words parsed as they
    are read. A file that no longer holds ``count`` words is an OSError
    naming it."""
    chunk = list(islice(keys, stop - start))
    if len(chunk) < stop - start or (stop == count and next(keys, None) is not None):
        raise OSError(f"{path}: changed while it was read: it no longer "
                      f"holds {count} words")
    return chunk


def _materialize(args: argparse.Namespace, check: Optional[Callable] = None):
    """Validate flags, then build (config, model, words, key chunks,
    workload_meta); the words are a ``Store`` of ints. The key chunks are
    ``_key_chunks``, read once: drawn by ``gen_queries`` as they are read,
    or parsed from a ``--queries-file`` a chunk at a time. That file is
    read twice, a block of lines at a time: here, its every word parsed
    and counted but not kept, so a bad word is an error before any report
    byte, then by the chunks. ``check``, if given, is called with the
    config, the model and the query count once the word and query files
    are read, before any word or key is drawn."""
    tolerance = getattr(args, "tolerance", 0.0)
    if not tolerance >= 0:  # NaN fails every comparison
        raise InvalidConfig(f"--tolerance must be >= 0, got {tolerance:g}")
    expected = getattr(args, "expect_fraction", None)
    if expected is not None and not math.isfinite(expected):
        raise InvalidConfig(f"--expect-fraction must be finite, got {expected:g}")
    config = _make_config(args)
    model = _make_model(args)
    spec = None if args.queries_file else _make_workload(args)

    if args.words:
        words = load_words(read_text_lines(args.words), config.word_bits,
                           args.format, args.words)
        _refuse_empty("word", args.words, len(words))
        config = replace(config, num_words=len(words))
    path = args.queries_file
    if path:
        count = sum(1 for _ in parse_words(
            read_text_lines(path), config.word_bits, args.format, path))
        _refuse_empty("query", path, count)
        workload_meta = {"kind": "file", "path": path, "num_queries": count}
    else:
        workload_meta = spec.to_dict()
    if check is not None:
        check(config, model, workload_meta["num_queries"])

    if not args.words:
        words = gen_words(config.num_words, config.word_bits, config.seed)
    if path:
        keys = parse_words(read_text_lines(path), config.word_bits, args.format, path)
        chunks = _key_chunks(count, partial(_file_keys, keys, path, count))
    else:
        chunks = _key_chunks(spec.num_queries, partial(gen_queries, spec, words))
    return config, model, words, chunks, workload_meta


def _report_header(args, config, model, workload_meta) -> dict:
    """The inputs block shared by the search and compare reports."""
    return {
        "config": asdict(config),
        "workload": workload_meta,
        "words_file": args.words,
        "word_format": args.format,
        "model": asdict(model),
        "units": {"energy": ENERGY_UNITS_NOTE, "delay": DELAY_UNITS_NOTE},
        "notes": [UPSIZE_NOTE],
    }


def _aggregate_dict(
    config, model, variant, totals: EventTotals, searches: int,
    queries_with_match: int,
) -> dict:
    """A report's aggregate block for one variant, from a run's summed
    event counts, its search count and how many of its queries matched."""
    energy = totals_energy(totals, model, config)
    fraction = totals.ml_precharges / (config.num_words * searches)
    expected = (
        expected_energized_fraction(config.mle_bits)
        if variant is Variant.SELECTIVE
        else 1.0
    )
    return {
        "searches": searches,
        "queries_with_match": queries_with_match,
        "total_matches": totals.ml_precharges - totals.ml_discharges,
        "mean_energized_fraction": fraction,
        "expected_energized_fraction": expected,
        "event_totals": totals._asdict(),
        "energy_total": energy,
        "energy_metric": energy_metric(energy, config, searches),
        "delay_per_search": search_delay(model, config, variant),
        "mean_power": energy / searches * model.f,
    }


def _emit(report, out: str) -> Optional[dict]:
    return write_report(report, sys.stdout if out == "-" else out)


def _check_fraction(args, measured: float) -> int:
    if args.expect_fraction is None:
        return 0
    if abs(measured - args.expect_fraction) <= args.tolerance:
        return 0
    print(
        f"check failed: energized fraction {measured:.6g} not within "
        f"{args.tolerance:g} of {args.expect_fraction:g}",
        file=sys.stderr,
    )
    return 1


def _refuse_overflow(variant, config, model, searches: int) -> None:
    """Refuse a search whose report could hold a non-finite number, before
    any of it is written. No run of ``searches`` searches counts more than
    N precharges, N discharges, n toggles and (gated) N energizer
    evaluations a search. Under a finite, positive model every priced
    number only grows with a count, so when the aggregate of that worst
    case is finite, so is every row and the run's own aggregate."""
    most = config.num_words * searches
    gated = most if variant is Variant.SELECTIVE else 0
    worst = EventTotals(most, most, most, config.word_bits * searches, gated)
    _json_text(_aggregate_dict(config, model, variant, worst, searches, searches))


def _search_rows(config, model, variant, words, chunks, rows: QueryRows) -> dict:
    """Search every key chunk on one array of ``words`` and write each
    chunk's rows into ``rows``; return the report's members that follow
    them, its aggregate, from the run's running counts. Each chunk is
    searched after the chunk before, reading its matches from the store's
    one dict of addresses. Its keys go as soon as it is searched, and
    ``_key_chunks`` keeps none of them, so no key is alive while its run
    is priced by ``aggregate`` and written by ``query_summary``; the run
    goes before the next chunk is drawn, so only running counts outlive it.

    This is ``energy.stream_totals``' fold on one array, with each run's
    rows written; it stays here, calling ``run_search_stream`` and
    ``sum_event_totals`` through this module, because ``bench/spans.py``
    traces search's streams through those bindings."""
    arr = new_array(config, variant, words)
    totals, with_match = EventTotals(), 0
    for start, prev_key, keys in chunks:
        part = run_search_stream(arr, keys, prev_key, start)
        del keys  # searched: its run is priced and written without it
        totals = EventTotals(*map(add, totals, sum_event_totals(part)))
        with_match += len(part) - part.matches.count(())
        query_summary(part, aggregate(part, model, config), rows)
        del part  # before the next chunk is drawn
    agg = _aggregate_dict(config, model, variant, totals, rows.count, with_match)
    return {"aggregate": agg}


def cmd_search(args: argparse.Namespace) -> int:
    variant = Variant(args.variant)
    config, model, words, chunks, workload_meta = _materialize(
        args, partial(_refuse_overflow, variant)
    )
    # The aggregate needs every chunk's counts, so it follows the rows,
    # which write_report writes as they are searched.
    document = {
        "report": "search",
        "variant": variant.value,
        **_report_header(args, config, model, workload_meta),
        "queries": partial(_search_rows, config, model, variant, words, chunks),
    }
    agg = _emit(document, args.out)["aggregate"]
    return _check_fraction(args, agg["mean_energized_fraction"])


def cmd_compare(args: argparse.Namespace) -> int:
    config, model, words, chunks, workload_meta = _materialize(args)
    # The all-NOR array shares the gated one's store, and stream_totals
    # folds each chunk of both into running counts, one run at a time.
    gated = new_array(config, Variant.SELECTIVE, words)
    arrays = [gated, replace(gated, variant=Variant.BASELINE_NOR)]
    totals, with_match, identical, searches = stream_totals(arrays, chunks)
    sel, base = (
        _aggregate_dict(config, model, arr.variant, side_totals, searches, matched)
        for arr, side_totals, matched in zip(arrays, totals, with_match)
    )
    event_ratio = totals[0].ml_precharges / totals[1].ml_precharges
    sel_ml, base_ml = (
        event_energy(model, EventClass.ML_PRECHARGE, side.ml_precharges, config)
        + event_energy(model, EventClass.ML_DISCHARGE, side.ml_discharges, config)
        for side in totals
    )
    # A valid model's positive energies can still round to 0. The ratios
    # divide by the baseline's energies, and its total is at least its ML
    # energy, which every search precharges.
    if base_ml == 0:
        raise InvalidConfig(
            "the all-NOR baseline's ML energy underflows to 0 under this "
            "model, so the energy ratios are undefined"
        )
    document = {
        "report": "compare",
        **_report_header(args, config, model, workload_meta),
        "selective": sel,
        "baseline_nor": base,
        "ml_precharge_event_ratio": event_ratio,
        "ml_energy_ratio": sel_ml / base_ml,
        "total_energy_ratio": sel["energy_total"] / base["energy_total"],
        "match_sets_identical": identical,
    }
    _emit(document, args.out)
    if not identical:
        print("check failed: variants disagree on some match set", file=sys.stderr)
        return 1
    return _check_fraction(args, event_ratio)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_min > args.k_max:
        raise InvalidConfig(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    # Every row sets its own k, which sweep_mle_bits checks, so --mle-bits
    # is accepted and unread, as --workers is: the shared config takes the
    # smallest k, which fits every width a config allows.
    args.mle_bits = MIN_MLE_BITS
    config, model, words, chunks, workload_meta = _materialize(args)
    # every k searches each chunk in turn
    rows = sweep_mle_bits(
        config, model, None,
        range(args.k_min, args.k_max + 1),
        words=words, chunks=chunks,
    )
    _emit(rows, args.out)
    # the pinned CSV schema has no room for metadata, so echo the effective
    # configuration here
    workload_desc = (
        f"file:{args.queries_file}" if args.queries_file else args.workload
    )
    print(
        f"config: num_words={config.num_words} word_bits={config.word_bits} "
        f"seed={config.seed} k={args.k_min}..{args.k_max} "
        f"workload={workload_desc} queries={workload_meta['num_queries']}"
    )
    print("model: " + " ".join(f"{k}={v:g}" for k, v in asdict(model).items()))
    print(f"argmin k = {sweep_argmin(rows)}")
    print("note: energy metric is in model-calibrated arbitrary units")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise InvalidConfig(f"--trials must be >= 0, got {args.trials}")
    config = _make_config(args)
    fault = args.inject_fault
    out = verify_exhaustive(seed=args.seed, fault=fault)
    print(f"exhaustive: {out.cases} cases checked")
    if out.ok and args.trials > 0:
        out = verify_randomized(config, args.trials, seed=args.seed, fault=fault)
        if out.ok:
            print(
                f"randomized: {args.trials} trials at N={config.num_words} "
                f"n={config.word_bits} k={config.mle_bits}"
            )
    if not out.ok:
        print(f"counterexample: {out.counterexample.describe()}", file=sys.stderr)
        return 1
    print("verify: all searches matched the oracle")
    return 0


# Verb -> (help text, flag adder, command): the one home of each verb.
_VERBS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None],
                        Callable[[argparse.Namespace], int]]] = {
    "search": ("run a query stream and emit a JSON report",
               _add_search_flags, cmd_search),
    "sweep": ("replay one workload across prefix widths, emit CSV",
              _add_sweep_flags, cmd_sweep),
    "compare": ("gated vs all-NOR baseline on one workload",
                _add_compare_flags, cmd_compare),
    "verify": ("oracle-equivalence harness", _add_verify_flags, cmd_verify),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    # No parser outlives _parse_args, but every add_argument left a help
    # formatter in a reference cycle, which only the cyclic collector
    # frees. They are this call's newest objects, so a collection of the
    # two young generations (about 0.1 ms) frees them before the verb
    # runs, and the verb's peak memory does not hang on when the collector
    # would next have run.
    gc.collect(1)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
