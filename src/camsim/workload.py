"""Workload generation, dataset/query file ingestion, report serialization.

All randomness comes from the counter-based draws in ``camsim.draws``, so a
workload is identical whatever order its values are drawn in, on any
platform.

Word files and model files are line-oriented UTF-8 text (a leading
byte-order mark is allowed), read through ``read_text_lines`` and
``content_lines``: '#'-prefixed lines and blank lines are ignored. A word
file holds one fixed-width binary or hex word per line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, filterfalse, islice, repeat
from operator import not_, sub
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

from .array import EventTotals, SearchRun, Store
from .core import _check_seed, parse_word
from .draws import Stream, threshold_bits, unit_threshold
from .errors import BadDigit, EmptyStore, InvalidConfig, WidthMismatch

# Stream tags keep the word, query, and decision draws independent.
_TAG_WORDS = b"words"
_TAG_QUERY = b"query"
_TAG_DECISION = b"plant-decision"
_TAG_PICK = b"plant-pick"
_TAG_SKEW = b"skew"


class WorkloadKind(Enum):
    UNIFORM = "uniform"
    PLANTED = "planted"
    PREFIX_SKEWED = "prefix-skewed"


@dataclass(frozen=True)
class WorkloadSpec:
    """Query-stream recipe: how many queries, from which distribution.

    ``match_rate`` applies to PLANTED (probability a query copies a stored
    word); ``bias`` applies to PREFIX_SKEWED (probability each query bit
    equals the corresponding bit of the first stored word, which drags the
    energized fraction away from the uniform-data value).
    """

    kind: WorkloadKind
    num_queries: int
    seed: int
    match_rate: Optional[float] = None
    bias: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise InvalidConfig(f"num_queries must be >= 1, got {self.num_queries}")
        _check_seed(self.seed)
        if self.kind is WorkloadKind.PLANTED:
            if self.match_rate is None or not 0 <= self.match_rate <= 1:
                raise InvalidConfig("planted workload needs match_rate in [0, 1]")
        if self.kind is WorkloadKind.PREFIX_SKEWED:
            if self.bias is None or not 0 < self.bias < 1:
                raise InvalidConfig("prefix-skewed workload needs bias in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "num_queries": self.num_queries,
            "seed": self.seed,
            "match_rate": self.match_rate,
            "bias": self.bias,
        }


def gen_words(count: int, width: int, seed: int) -> Store:
    """``count`` stored words of ``width`` uniform independent bits, as a
    ``Store`` of ints, deterministic for a fixed seed."""
    if count < 1 or width < 1:
        raise InvalidConfig("count and width must be >= 1")
    return Store(Stream(_TAG_WORDS, seed).bits_column(count, width), width)


# Prefix-skewed queries hashed into one buffer and thresholded at once. The
# buffer is 4 * width bytes a query, 11,520 bytes a batch at n = 144. It
# must fit under the traced peak that the searches of a key chunk already
# set, so that ``camsim compare``'s peak is no higher than with one query
# drawn at a time. At 256 x 144 with 1000 queries at bias 0.9 (seeds 1 and
# 97, Python 3.11), the draws' own peak stayed under the searches' up to
# 22 queries a batch, by 0.4 KB at 22; 23 raised the run's peak by 1% and
# 32 by 10%. 20 keeps a margin of about 2 KB, and draws those queries in
# 7.76 ms against 7.67 at 22 and 10.3 one at a time (best of 40).
SKEWED_QUERIES_PER_BATCH = 20


def gen_queries(
    workload: WorkloadSpec,
    words: Store,
    start: int = 0,
    stop: Optional[int] = None,
) -> list[int]:
    """Query keys for the given recipe, as ints as wide as the stored words
    (``words.width``): queries ``start`` .. ``stop`` - 1 of the stream, all
    of it by default.
    Query i depends only on (seed, i) and the stored words, never on
    evaluation order, so a range is that slice of the whole stream."""
    if not words:
        raise EmptyStore("query generation needs at least one stored word")
    if stop is None:
        stop = workload.num_queries
    if not 0 <= start <= stop <= workload.num_queries:
        raise InvalidConfig(
            f"query range [{start}, {stop}) is not within the "
            f"{workload.num_queries} queries"
        )
    width = words.width
    seed = workload.seed

    if workload.kind is WorkloadKind.UNIFORM:
        return Stream(_TAG_QUERY, seed).bits_column(stop - start, width, start)
    if workload.kind is WorkloadKind.PLANTED:
        # Query i copies a stored word when its decision draw u has
        # u / 2**64 < match_rate, as ``Stream.unit`` computes it. Only those
        # queries draw a pick, and only the others draw query bits.
        decisions = Stream(_TAG_DECISION, seed).bits_column(stop - start, 64, start)
        planted = [u / 2.0**64 < workload.match_rate for u in decisions]
        indices = range(start, stop)
        picks = Stream(_TAG_PICK, seed).bits_at(compress(indices, planted), 64)
        picked = iter([words[u % len(words)] for u in picks])
        drawn = iter(Stream(_TAG_QUERY, seed).bits_at(
            compress(indices, map(not_, planted)), width
        ))
        return [next(picked) if p else next(drawn) for p in planted]
    # Bit pos keeps the anchor's bit when its 32-bit word x has
    # x / 2**32 < bias, so the flip mask has a 1 wherever x >= threshold.
    # A batch's draws are hashed into one buffer and thresholded at once;
    # the flips of query i are then its width digits of the result.
    anchor = words[0]
    threshold = unit_threshold(workload.bias)
    skew = Stream(_TAG_SKEW, seed)
    out = []
    for first in range(start, stop, SKEWED_QUERIES_PER_BATCH):
        count = min(SKEWED_QUERIES_PER_BATCH, stop - first)
        flips = threshold_bits(skew.blocks_column(count, 4 * width, first), threshold)
        out += [anchor ^ int(flips[j : j + width], 2)
                for j in range(0, count * width, width)]
    return out


# Keys a verb draws (or slices from a --queries-file), searches and prices
# at a time: the most of its keys it holds.
KEYS_PER_CHUNK = 512


def _key_chunks(count: int, draw: Callable[[int, int], Sequence[int]]):
    """``(start, prev_key, keys)`` for each ``KEYS_PER_CHUNK`` keys of a
    stream of ``count`` keys (the last chunk may be shorter): ``keys`` is
    ``draw(start, stop)``, called as the chunk is read, and ``prev_key`` is
    the key before ``start``, None for the first chunk. The generator lets
    go of a chunk's keys before it draws the next chunk, so a reader that
    also drops them at the end of each step holds one chunk at a time."""
    prev_key = None
    for start in range(0, count, KEYS_PER_CHUNK):
        keys = draw(start, min(start + KEYS_PER_CHUNK, count))
        yield start, prev_key, keys
        prev_key = keys[-1]
        del keys


def read_text_lines(path: Union[str, Path]) -> list[str]:
    """The lines of a UTF-8 text file, whatever the locale, without a leading
    byte-order mark. A file that does not decode is an OSError naming it,
    like any other unreadable input."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise OSError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def content_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is neither
    blank nor a '#' comment."""
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_words(
    source: Union[IO[str], Iterable[str]],
    width: int,
    fmt: str = "bin",
    name: Optional[str] = None,
) -> Store:
    """Parse one word per content line into a ``Store`` of ``width``-bit
    ints, keeping no ``BitWord``; parse errors cite the 1-based line
    number, after ``name`` (the source file's path) when it is given."""
    where = "" if name is None else f"{name}: "
    out = []
    for lineno, line in content_lines(source):
        try:
            out.append(parse_word(line, width, fmt).value)
        except (WidthMismatch, BadDigit) as exc:
            raise type(exc)(f"{where}line {lineno}: {exc}") from exc
    return Store(out, width)


SWEEP_CSV_HEADER = "k,energized_fraction,energy_metric,mean_delay"


def _sig6(x: float) -> str:
    return format(x, ".6g")


def sweep_csv_text(rows: Sequence) -> str:
    """CSV for sweep rows, numbers at 6 significant digits so golden files
    stay stable across platforms. NaN and infinities are rejected, as in
    ``report_json_text``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for row in rows:
        numbers = (row.mean_energized_fraction, row.energy_metric, row.mean_delay)
        if not all(map(math.isfinite, numbers)):
            raise InvalidConfig(f"sweep row k={row.k} holds a non-finite number")
        writer.writerow([str(row.k), *map(_sig6, numbers)])
    return buf.getvalue()


def _json_text(document: object) -> str:
    """``json.dumps`` with indent 2; NaN and infinities are rejected because
    they are not valid JSON."""
    try:
        return json.dumps(document, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InvalidConfig(f"report holds a non-finite number: {exc}") from exc


def _json_pieces(document: dict) -> Iterable[str]:
    """The pieces that join to ``report_json_text(document)``, with every
    check already run, so writing them one by one writes nothing for a
    refused document. A ``QueryRows`` under the top-level ``"queries"`` key
    is spliced in, its spooled rows read as the pieces are; any other
    document is one piece, ``json.dumps`` of the whole."""
    rows = document.get("queries")
    if not isinstance(rows, QueryRows):
        return (_json_text(document) + "\n",)
    header = _json_text({**document, "queries": []})
    if rows.non_finite is not None:
        _json_text(rows.non_finite)  # raises, after any error in the header
    # A top-level key is the only place this text can occur: deeper keys are
    # indented further, and string values escape their quotes and newlines.
    head, _, tail = header.partition(_EMPTY_QUERIES)
    return chain((head,), rows, (tail + "\n",))


def report_json_text(document: dict) -> str:
    """Pretty-printed JSON (``json.dumps`` with indent 2); NaN and infinities
    are rejected because they are not valid JSON. A ``QueryRows`` under the
    top-level ``"queries"`` key renders as the list of its rows."""
    return "".join(_json_pieces(document))


def write_report(
    report: Union[dict, Sequence],
    destination: Union[str, Path, IO[str]],
    fmt: str = "json",
) -> None:
    """Serialize a report document (json) or sweep rows (csv) to a path or
    stream. Identical inputs produce byte-identical output. A refused report
    writes nothing and creates no file. A search report's rows are copied
    from their spool ``SPOOL_BLOCK_BYTES`` at a time, so its whole text is
    never held in memory."""
    if fmt == "json":
        if not isinstance(report, dict):
            raise ValueError("json reports expect a document dict")
        pieces = _json_pieces(report)
    elif fmt == "csv":
        pieces = (sweep_csv_text(report),)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if hasattr(destination, "write"):
        for piece in pieces:
            destination.write(piece)  # type: ignore[union-attr]
    else:
        with open(destination, "w", encoding="utf-8", newline="") as out:
            out.writelines(pieces)


QUERY_ROW_KEYS = ("index", "matches", "energized_count", "events", "energy")
_EVENT_KEYS = EventTotals._fields
_EMPTY_QUERIES = '\n  "queries": []'


# Rows rendered per write into a search report's spool. A piece's text,
# about 280 bytes a row at 256 x 144, is held three times while it is
# written (the row strings, their join and its encoding), about 28 KB at 32
# rows. 128-row pieces raised the traced peak of a 2,500-query search at
# 256 x 144 by 87 KB (Python 3.11).
QUERY_ROWS_PER_CHUNK = 32

# Bytes of spooled rows read per piece of a written report: each block is
# held as bytes, as text and as the destination's encoding of it. 64 KB
# blocks raised the same peak by 91 KB.
SPOOL_BLOCK_BYTES = 16 * 1024


@dataclass(eq=False)
class QueryRows:
    """A search report's "queries" list, spooled: ``query_summary`` renders
    the rows of each run it is given at once and appends them to ``spool``,
    a binary file, so no run outlives its call. ``count`` is the number of
    rows spooled, and ``non_finite`` the first non-finite energy among them,
    which ``write_report`` refuses. The default spool holds up to
    ``SPOOL_BLOCK_BYTES`` in memory and rolls over to an unnamed file in
    ``TMPDIR`` past that, and is closed when the ``QueryRows`` goes; a spool
    passed in (``camsim search`` passes an unnamed temporary file) is the
    caller's to close.

    Iteration yields the text that ``json.dumps(indent=2)`` writes for the
    list under a top-level key, from its leading newline to its closing
    bracket: the spool is read from its start in blocks of at most
    ``SPOOL_BLOCK_BYTES``, so the rows' text is never held whole. The rows
    are ASCII, as ``%s`` writes an int or a float."""

    spool: Optional[IO[bytes]] = None
    count: int = 0
    non_finite: Optional[float] = None

    def __post_init__(self) -> None:
        if self.spool is None:
            self.spool = tempfile.SpooledTemporaryFile(SPOOL_BLOCK_BYTES)
            weakref.finalize(self, self.spool.close)

    def __iter__(self) -> Iterator[str]:
        if not self.count:
            yield _EMPTY_QUERIES
            return
        yield '\n  "queries": [\n'
        spool = self.spool
        spool.seek(0)
        while block := spool.read(SPOOL_BLOCK_BYTES):
            yield block.decode("ascii")
        yield "\n  ]"


def _json_object_format(keys: Sequence[str], values: dict, indent: int) -> str:
    """A ``str.format`` template for a JSON object with these keys, laid out
    as ``json.dumps(indent=2)`` lays it out at this nesting depth: a ``{}``
    slot per key unless ``values`` holds the key's own template."""
    pad = " " * indent
    members = ",\n".join(
        f"{pad}  {json.dumps(k)}: {values.get(k, '{}')}" for k in keys
    )
    return f"{{{{\n{members}\n{pad}}}}}"


# One query row inside the top-level "queries" list, with a %s slot for each
# of: the index, the rendered match list, energized_count, the event counts
# in ``EventTotals`` field order and the energy. %s writes an int or a float
# as its repr, which is json.dumps's text for it.
_ROW_TEMPLATE = ("    " + _json_object_format(
    QUERY_ROW_KEYS, {"events": _json_object_format(_EVENT_KEYS, {}, 6)}, 4
)).format(*["%s"] * 9)


class _MatchesText(dict):
    """A row's ``"matches"`` text, as ``json.dumps(indent=2)`` lays out the
    list in a row: an empty list is looked up, and any other is rendered
    as it is read and not kept, so a run's match texts are never held
    together."""

    def __missing__(self, matches: tuple[int, ...]) -> str:
        return "[\n        " + ",\n        ".join(map(str, matches)) + "\n      ]"


_MATCHES_TEXT = _MatchesText({(): "[]"})


def query_summary(
    run: SearchRun, energies: Sequence[float], rows: Optional[QueryRows] = None
) -> QueryRows:
    """Render the per-query rows of a search report, keyed in
    ``QUERY_ROW_KEYS`` order, and append them to ``rows`` (if None, a new
    ``QueryRows`` with its default spool), which is returned. Each row
    holds a search's index, matches, energized count, event counts and
    energy (``energies[i]``, as ``energy.aggregate`` gives it for the
    search). The run is the next part of the stream after the rows already
    spooled: its first search is row ``rows.count``, so ``camsim search``
    calls this once per chunk, with the chunk's run. The rows are rendered
    ``QUERY_ROWS_PER_CHUNK`` at a time from one pass over the run's
    columns, so the call holds no more than a piece of their text however
    long the run, and the first non-finite energy is kept for
    ``write_report`` to refuse before it writes any byte."""
    n = len(run)
    if len(energies) != n:
        raise ValueError(f"{len(energies)} energies for a run of {n} searches")
    if rows is None:
        rows = QueryRows()
    if rows.non_finite is None:
        rows.non_finite = next(filterfalse(math.isfinite, energies), None)
    matches = run.matches
    energized = run.energized
    first = rows.count
    texts = map(_ROW_TEMPLATE.__mod__, zip(
        range(first, first + n), map(_MATCHES_TEXT.__getitem__, matches),
        energized, run.ml_en_transitions,
        energized, map(sub, energized, map(len, matches)), run.sl_toggles,
        repeat(run.energizers), energies,
    ))
    spool = rows.spool
    spool.seek(0, io.SEEK_END)
    for start in range(first, first + n, QUERY_ROWS_PER_CHUNK):
        lead = ("",) if start else ()  # the separator after the row before
        piece = ",\n".join([*lead, *islice(texts, QUERY_ROWS_PER_CHUNK)])
        spool.write(piece.encode("ascii"))
    rows.count += n
    return rows
