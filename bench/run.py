#!/usr/bin/env python3
"""camsim benchmark: each CLI verb end to end, plus a traced per-layer pass.

Run from the repository root:

    python3 bench/run.py --workload search-uniform --seed 1 --seconds 30 --trace 0

Every verb run goes through ``camsim.cli.main(argv)`` in this process, with
no ``--workers`` flag, and writes its report to a file under
``bench/results/``. Every output is checked; a failed check counts against
the run's ``failed`` total and never stops the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first times the
verb untraced, then installs the span tracer (``spans.py``) in a pass of its
own, prints the per-layer metrics and writes the last traced run's spans.
The last line of standard output is the JSON result; a stamped results file
goes to ``bench/results/`` as well.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable, Optional

from spans import TraceError, Tracer, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
PINNED_FILE = BENCH_DIR / "pinned.json"

# ROADMAP reference geometry.
NUM_WORDS, WIDTH, MLE_BITS = 256, 144, 3
# Outputs at this seed must equal pinned.json exactly; other seeds are
# checked against invariants only.
PINNED_SEED = 1
# The exhaustive tier of `verify` is a fixed cost of about 0.2 s, so the
# search and compare runs are sized near it: 100+ verb runs fit in 30 s,
# which leaves at least 10 samples beyond the reported p90.
SETUP_REPS = 15
TAIL_PERCENTILE = 90
FRACTION_TOLERANCE = 0.005
# Every time the benchmark reports is scaled to a reference host speed.
# On a shared host the interpreter's speed drifts by up to 2x within
# minutes. That moved raw 20-second medians of one verb by 20% (quartile
# spread over eight windows), but a stdlib-only loop timed next to each
# sample moved by the same factor: scaled, the spread was 1.2%. A scaled
# sample is host seconds * CALIBRATION_REF_S / (mean loop time before and
# after it).
CALIBRATION_REF_S = 0.010


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    flags: tuple[str, ...]
    queries: int = 0
    trials: int = 0
    skew_bias: Optional[float] = None

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [
            self.verb,
            "--num-words", str(NUM_WORDS),
            "--width", str(WIDTH),
            "--mle-bits", str(MLE_BITS),
            "--seed", str(seed),
            *self.flags,
        ]
        if self.verb == "verify":
            return argv + ["--trials", str(self.trials)]
        return argv + ["--queries", str(self.queries), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-uniform", "search",
                 ("--workload", "uniform", "--variant", "selective"),
                 queries=2500),
        Workload("compare-skewed", "compare",
                 ("--workload", "prefix-skewed", "--bias", "0.9"),
                 queries=1000, skew_bias=0.9),
        Workload("verify", "verify", (), trials=200),
    )
}

# name -> unit; must match BENCHMARK.json (the self-tests check it).
END_TO_END = {
    "wall_s": "s",
    f"wall_s_p{TAIL_PERCENTILE}": "s",
    "searches_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "workload.gen_words_s": "s",
    "workload.gen_queries_s": "s",
    "workload.query_summary_s": "s",
    "workload.write_report_s": "s",
    "workload.report_bytes": "bytes",
    "array.new_array_s": "s",
    "array.new_array.calls": "count",
    "array.run_search_stream.selective_s": "s",
    "array.us_per_search.selective": "us",
    "array.run_search_stream.baseline-nor_s": "s",
    "array.us_per_search.baseline-nor": "us",
    "array.sum_event_totals_s": "s",
    "array.search_s": "s",
    "array.search.calls": "count",
    "array.oracle_search_s": "s",
    "energy.aggregate_s": "s",
    "energy.aggregate.calls": "count",
    "verify.verify_exhaustive_s": "s",
    "verify.verify_randomized_s": "s",
    "verify.cases": "count",
    "bench.tracing_overhead_s": "s",
    "sim.energized_fraction": "ratio",
    "sim.ml_precharges": "count",
    "sim.ml_discharges": "count",
    "sim.ml_en_transitions": "count",
    "sim.sl_toggles": "count",
    "sim.ml_precharge_event_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no camsim sources, bad arguments)."""


def import_camsim() -> Any:
    """Import camsim from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "camsim" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no camsim sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import camsim
    import camsim.cli

    if Path(camsim.__file__).resolve() != init.resolve():
        raise BenchError(f"imported camsim from {camsim.__file__}, not {init}")
    return camsim


# --- output checks ----------------------------------------------------------


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite number {token} in report")


def _side(agg: dict) -> dict:
    return {
        "searches": agg["searches"],
        "total_matches": agg["total_matches"],
        "mean_energized_fraction": agg["mean_energized_fraction"],
        "event_totals": agg["event_totals"],
    }


def extract(workload: Workload, stdout: str, report_text: str) -> dict:
    """The checked values of one verb run. Raises ValueError or KeyError on
    output that is not strict JSON or lacks a field."""
    if workload.verb == "verify":
        values = {"exhaustive_cases": None, "randomized_trials": None,
                  "all_matched": "all searches matched" in stdout}
        for line in stdout.splitlines():
            words = line.split()
            if line.startswith("exhaustive:"):
                values["exhaustive_cases"] = int(words[1])
            elif line.startswith("randomized:"):
                values["randomized_trials"] = int(words[1])
        return values
    doc = json.loads(report_text, parse_constant=_reject_constant)
    if workload.verb == "search":
        return _side(doc["aggregate"])
    return {
        "selective": _side(doc["selective"]),
        "baseline_nor": _side(doc["baseline_nor"]),
        "ml_precharge_event_ratio": doc["ml_precharge_event_ratio"],
        "match_sets_identical": doc["match_sets_identical"],
    }


def _diff(got: Any, want: Any, path: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            out += _diff(got.get(key), want.get(key), f"{path}.{key}" if path else key)
        return out
    if got != want or type(got) is not type(want):
        return [f"{path}: got {got!r}, pinned {want!r}"]
    return []


def invariant_problems(workload: Workload, values: dict) -> list[str]:
    """Seed-independent checks for runs off the pinned seed."""
    problems = []
    if workload.verb == "search":
        if values["searches"] != workload.queries:
            problems.append(f"searches {values['searches']} != {workload.queries}")
        expected = 2.0 ** -MLE_BITS
        fraction = values["mean_energized_fraction"]
        if not abs(fraction - expected) <= FRACTION_TOLERANCE:
            problems.append(
                f"energized fraction {fraction} not within "
                f"{FRACTION_TOLERANCE} of {expected}"
            )
    elif workload.verb == "compare":
        if values["match_sets_identical"] is not True:
            problems.append("match_sets_identical is not true")
        for side in ("selective", "baseline_nor"):
            if values[side]["searches"] != workload.queries:
                problems.append(f"{side} searches != {workload.queries}")
    else:
        if not values["all_matched"]:
            problems.append("verify did not print 'all searches matched'")
        if values["randomized_trials"] != workload.trials:
            problems.append(
                f"randomized trials {values['randomized_trials']} != {workload.trials}"
            )
    return problems


def check_run(
    workload: Workload, seed: int, rc: int, stdout: str, report_text: str,
    pinned: dict,
) -> tuple[list[str], dict]:
    """Problems with one verb run's output (empty when correct), and the
    values it reported."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        values = extract(workload, stdout, report_text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"unreadable output: {exc!r}"], {}
    if seed == PINNED_SEED:
        problems += _diff(values, pinned[workload.name])
    else:
        problems += invariant_problems(workload, values)
    return problems, values


def searches_in(workload: Workload, values: dict) -> int:
    if workload.verb == "search":
        return values["searches"]
    if workload.verb == "compare":
        return values["selective"]["searches"] + values["baseline_nor"]["searches"]
    return values["exhaustive_cases"] + values["randomized_trials"]


def sim_counts(workload: Workload, values: dict) -> dict[str, float]:
    """Simulated statistics of the gated array; 0 where the verb reports
    none (verify) or the figure does not exist (the ratio in search)."""
    out = {name: 0 for name in PER_LAYER if name.startswith("sim.")}
    if workload.verb == "verify" or not values:
        return out
    side = values if workload.verb == "search" else values["selective"]
    totals = side["event_totals"]
    out["sim.energized_fraction"] = side["mean_energized_fraction"]
    for name in ("ml_precharges", "ml_discharges", "ml_en_transitions", "sl_toggles"):
        out[f"sim.{name}"] = totals[name]
    if workload.verb == "compare":
        out["sim.ml_precharge_event_ratio"] = values["ml_precharge_event_ratio"]
    return out


@dataclass
class Tally:
    """Verb runs attempted and failed; failures never stop the benchmark."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- running verbs ----------------------------------------------------------


def calibration_loop() -> float:
    """Host seconds for a fixed pure-Python loop that shares no code with
    camsim (about 10 ms on the 2-core reference host). One half is integer
    and dict work that stays in cache; the other allocates some thousand
    small dicts and pretty-prints part of them, as the verbs' reports do.
    Together they track the verbs better than either half alone."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
    rows = [
        {"index": i, "value": (v * 6364136223846793005) >> 40, "events": (v & 7, i)}
        for i, v in enumerate(table.values())
        for _ in range(2)
    ]
    rows.sort(key=lambda r: r["value"])
    blake2b(json.dumps(rows[:400], indent=2).encode()).digest()
    return time.perf_counter() - start


def scaled_call(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two calibration loops. Returns its result, its host
    seconds and the factor from host seconds to reference seconds."""
    gc.collect()
    before = calibration_loop()
    start = time.perf_counter()
    result = fn()
    host = time.perf_counter() - start
    after = calibration_loop()
    return result, host, 2 * CALIBRATION_REF_S / (before + after)


@dataclass
class VerbRun:
    rc: int
    wall_s: float  # host seconds
    scale: float  # reference seconds per host second during the run
    problems: list[str]
    values: dict
    peak_bytes: int = 0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def run_verb(
    main: Callable[[list[str]], int], workload: Workload, seed: int,
    workdir: Path, pinned: dict, trace_memory: bool = False,
) -> VerbRun:
    """One verb run, timed around ``main`` only, then checked. With
    ``trace_memory`` the run is untimed, under tracemalloc, and records its
    peak."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    argv = workload.argv(seed, report)
    out, err = io.StringIO(), io.StringIO()

    def invoke() -> int:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse rejects flags this way
                return exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a crash is a failed run
                print(f"crash: {exc!r}", file=sys.stderr)
                return 1

    peak, wall, scale = 0, 0.0, 1.0
    if trace_memory:
        tracemalloc.start()
        try:
            rc = invoke()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    else:
        rc, wall, scale = scaled_call(invoke)
    text = report.read_text(encoding="utf-8") if report.exists() else ""
    problems, values = check_run(workload, seed, rc, out.getvalue(), text, pinned)
    if rc != 0 and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip()[:200])
    return VerbRun(rc, wall, scale, problems, values, peak)


def timed_pass(
    main: Callable[[list[str]], int], workload: Workload, seed: int,
    seconds: float, workdir: Path, pinned: dict, tally: Tally,
    after: Optional[Callable[[VerbRun], None]] = None,
) -> list[VerbRun]:
    """Repeat the verb for ``seconds`` (at least twice)."""
    runs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) < 2:
        run = run_verb(main, workload, seed, workdir, pinned)
        tally.record(run.problems)
        if after:
            after(run)
        runs.append(run)
    return runs


def time_setup(camsim: Any, workload: Workload, seed: int) -> float:
    """Scaled seconds for the run's inputs and arrays: gen_words, gen_queries
    and new_array once per variant the verb builds at full geometry."""
    config = camsim.CamConfig(
        num_words=NUM_WORDS, word_bits=WIDTH, mle_bits=MLE_BITS, seed=seed
    )
    variants = [camsim.Variant.SELECTIVE]
    spec = None
    if workload.skew_bias is not None:
        spec = camsim.WorkloadSpec(
            camsim.WorkloadKind.PREFIX_SKEWED, workload.queries, seed,
            bias=workload.skew_bias,
        )
        variants.append(camsim.Variant.BASELINE_NOR)
    elif workload.verb != "verify":
        spec = camsim.WorkloadSpec(camsim.WorkloadKind.UNIFORM, workload.queries, seed)

    def build() -> None:
        words = camsim.gen_words(NUM_WORDS, WIDTH, seed)
        if spec is not None:
            camsim.gen_queries(spec, words)
        for variant in variants:
            camsim.new_array(config, variant, words)

    _, host, scale = scaled_call(build)
    return host * scale


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE value and how many samples lie beyond it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return cut, sum(1 for v in values if v > cut)


def measure_end_to_end(
    camsim: Any, workload: Workload, seed: int, seconds: float,
    workdir: Path, pinned: dict, tally: Tally,
) -> tuple[dict[str, float], dict]:
    setups = [time_setup(camsim, workload, seed) for _ in range(SETUP_REPS)]

    # Untimed pass under tracemalloc; it also warms the interpreter.
    run = run_verb(camsim.cli.main, workload, seed, workdir, pinned, trace_memory=True)
    tally.record(run.problems)

    runs = timed_pass(camsim.cli.main, workload, seed, seconds, workdir, pinned, tally)
    walls = [r.scaled_s for r in runs]
    wall = statistics.median(walls)
    p_tail, beyond = tail(walls)
    searches = searches_in(workload, run.values) if not run.problems else 0
    metrics = {
        "wall_s": wall,
        f"wall_s_p{TAIL_PERCENTILE}": p_tail,
        "searches_per_s": searches / wall,
        "setup_s": statistics.median(setups),
        "peak_mem_mb": run.peak_bytes / 1e6,
    }
    notes = {
        "wall_s_samples": walls,
        "host_wall_s_median": statistics.median(r.wall_s for r in runs),
        "host_scale_median": statistics.median(r.scale for r in runs),
        "wall_samples": len(walls),
        "samples_beyond_tail": beyond,
        "setup_samples": len(setups),
        "searches_per_run": searches,
    }
    return metrics, notes


def measure_layers(
    camsim: Any, workload: Workload, seed: int, seconds: float,
    workdir: Path, pinned: dict, tally: Tally,
) -> tuple[dict[str, float], dict, list]:
    untraced = timed_pass(
        camsim.cli.main, workload, seed, seconds / 2, workdir, pinned, tally
    )
    tracer = Tracer()
    per_run: list[dict[str, float]] = []
    last_spans: list = []

    def traced_main(argv: list[str]) -> int:
        tracer.spans = []
        return tracer.call("cli.main", camsim.cli.main, argv)

    def collect(run: VerbRun) -> None:
        nonlocal last_spans
        totals = layer_totals(tracer.spans)
        for name, value in totals.items():
            if name.endswith("_s") or name.startswith("array.us_per_search."):
                totals[name] = value * run.scale
        per_run.append(totals)
        last_spans = tracer.spans

    with tracer.installed():
        traced = timed_pass(
            traced_main, workload, seed, seconds / 2, workdir, pinned, tally, collect
        )

    metrics = {
        name: statistics.median(r.get(name, 0) for r in per_run)
        for name in PER_LAYER
        if not name.startswith(("sim.", "bench."))
    }
    metrics["bench.tracing_overhead_s"] = statistics.median(
        r.scaled_s for r in traced
    ) - statistics.median(r.scaled_s for r in untraced)
    metrics.update(sim_counts(workload, traced[-1].values))
    notes = {"untraced_samples": len(untraced), "traced_samples": len(traced)}
    return {name: metrics[name] for name in PER_LAYER}, notes, last_spans


# --- results ----------------------------------------------------------------


def git_revision() -> str:
    """HEAD of this checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_revision": git_revision(),
        "geometry": {"num_words": NUM_WORDS, "word_bits": WIDTH, "mle_bits": MLE_BITS},
        "workload": workload.name,
        "argv": workload.argv(seed, Path("REPORT")),
        "seed": seed,
        "pinned_seed": seed == PINNED_SEED,
        "queries": workload.queries,
        "trials": workload.trials,
        "seconds": seconds,
        "trace": trace,
    }


def print_table(metrics: dict[str, float], units: dict[str, str], tally: Tally,
                notes: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':40s} {tally.error_rate:>16.6g} ratio"
          f"  ({tally.failed} failed / {tally.attempted} verb runs)")
    for name, value in notes.items():
        if not isinstance(value, list):
            print(f"  # {name} = {value}")
    for problem in tally.problems:
        print(f"  ! {problem}")


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must fit in 64 unsigned bits")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    try:
        camsim = import_camsim()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR))
    tally = Tally()
    spans: list = []
    try:
        if args.trace:
            metrics, notes, spans = measure_layers(
                camsim, workload, args.seed, args.seconds, workdir, pinned, tally
            )
            units = PER_LAYER
        else:
            metrics, notes = measure_end_to_end(
                camsim, workload, args.seed, args.seconds, workdir, pinned, tally
            )
            units = END_TO_END
    except TraceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "stamp": stamp(workload, args.seed, args.seconds, args.trace),
        "error_rate": tally.error_rate,
        "problems": tally.problems,
        "notes": notes,
        "result": result,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, detail in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "detail": detail}) + "\n")

    print(f"camsim bench: {workload.name} seed={args.seed} trace={args.trace} "
          f"N={NUM_WORDS} n={WIDTH} k={MLE_BITS} queries={workload.queries} "
          f"trials={workload.trials}")
    print_table(metrics, units, tally, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
