"""Call spans for the benchmark's traced pass.

The tracer wraps, from outside, every camsim function that one camsim
module imports from another, and records one span per call: (id, name,
start, end, parent, detail). camsim's own code is not changed; the
wrappers replace the importing module's binding and ``Tracer.restore``
puts every original back. Calls a module makes to its own functions (for
example ``run_search_stream`` calling ``search`` inside ``array``) are not
visible from outside and are counted in the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

# Importing module -> the functions it imports from another camsim module.
# Classes and constants are not wrapped. A name that disappears from its
# module is an error at install time, so a refactor cannot silently drop
# a layer from the trace.
IMPORTED: dict[str, tuple[str, ...]] = {
    "camsim.cli": (
        "new_array", "run_search_stream", "sum_event_totals",
        "aggregate", "energy_metric", "event_energy", "search_delay",
        "sweep_argmin", "sweep_mle_bits", "totals_energy",
        "expected_energized_fraction",
        "verify_exhaustive", "verify_randomized",
        "gen_queries", "gen_words", "load_words", "query_summary",
        "write_report",
    ),
    "camsim.energy": (
        "new_array", "run_search_stream", "sum_event_totals",
        "gen_queries", "gen_words",
    ),
    "camsim.verify": ("new_array", "oracle_search", "search"),
    # verify_randomized imports gen_words inside its body, which reads the
    # binding on camsim.workload itself at call time.
    "camsim.workload": ("gen_words", "parse_word"),
}

Span = tuple[int, str, float, float, Optional[int], Optional[dict]]


class TraceError(RuntimeError):
    """A binding the tracer must wrap is missing."""


def _report_bytes(args: tuple, result: Any) -> Optional[dict]:
    destination = args[1] if len(args) > 1 else None
    if isinstance(destination, (str, Path)):
        return {"bytes": Path(destination).stat().st_size}
    return None


# Span name -> detail recorded from the call's arguments and result.
DETAILS: dict[str, Callable[[tuple, Any], Optional[dict]]] = {
    "array.run_search_stream": lambda args, result: {
        "variant": args[0].variant.value,
        "searches": len(result),
    },
    "workload.write_report": _report_bytes,
    "verify.verify_exhaustive": lambda args, result: {"cases": result.cases},
    "verify.verify_randomized": lambda args, result: {"cases": result.cases},
}


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Callable]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        returned, result = False, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            detail = DETAILS.get(name)
            self.spans.append(
                (sid, name, start, end, parent,
                 detail(args, result) if detail and returned else None)
            )

    def _wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in IMPORTED}
        missing = [
            f"{m}.{n}"
            for m, names in IMPORTED.items()
            for n in names
            if not callable(getattr(modules[m], n, None))
        ]
        if missing:
            raise TraceError("traced names missing: " + ", ".join(missing))
        for m, names in IMPORTED.items():
            for n in names:
                original = getattr(modules[m], n)
                setattr(modules[m], n, self._wrap(original))
                self._saved.append((modules[m], n, original))

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one verb run.

    Every span name gets ``<name>_s`` (summed duration) and ``<name>.calls``.
    ``run_search_stream`` is also split by variant, with microseconds per
    search; ``cli.self_s`` is ``cli.main`` minus its direct children.
    """
    out: dict[str, float] = {}
    children_of_main = 0.0
    main_ids = {s[0] for s in spans if s[1] == "cli.main"}
    for sid, name, start, end, parent, detail in spans:
        dur = end - start
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if parent in main_ids:
            children_of_main += dur
        if not detail:
            continue
        if name == "array.run_search_stream":
            v = detail["variant"]
            out[f"{name}.{v}_s"] = out.get(f"{name}.{v}_s", 0.0) + dur
            out[f"array.searches.{v}"] = (
                out.get(f"array.searches.{v}", 0) + detail["searches"]
            )
        elif name == "workload.write_report":
            out["workload.report_bytes"] = (
                out.get("workload.report_bytes", 0) + detail["bytes"]
            )
        elif name.startswith("verify.verify_"):
            out["verify.cases"] = out.get("verify.cases", 0) + detail["cases"]
    for v in ("selective", "baseline-nor"):
        searches = out.get(f"array.searches.{v}", 0)
        if searches:
            out[f"array.us_per_search.{v}"] = (
                out[f"array.run_search_stream.{v}_s"] / searches * 1e6
            )
    if "cli.main_s" in out:
        out["cli.self_s"] = out["cli.main_s"] - children_of_main
    return out
