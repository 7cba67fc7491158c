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
from codecs import BOM_UTF8
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import compress, filterfalse, islice, repeat
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
        return {**asdict(self), "kind": self.kind.value}


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


# Keys a verb draws (or parses from a --queries-file), searches and prices
# at a time: the most of its keys it holds. 256-key chunks cut the traced
# peak of a 1000-query search at 256 x 144 from 0.112 to 0.097 MB, but cost
# it 2-5% of its wall time (Python 3.11).
KEYS_PER_CHUNK = 512


def _key_chunks(
    count: int, draw: Callable[[int, int], Sequence[int]], size: int = KEYS_PER_CHUNK
):
    """``(start, prev_key, keys)`` for each ``size`` keys of a stream of
    ``count`` keys (the last chunk may be shorter): ``keys`` is
    ``draw(start, stop)``, called as the chunk is read, and ``prev_key`` is
    the key before ``start``, None for the first chunk. The generator hands
    each chunk over: once it has yielded a chunk, it keeps only the chunk's
    last key, so a reader that drops the keys once it has searched them
    holds none of them while it prices and writes the chunk. The verbs cut
    ``KEYS_PER_CHUNK`` keys a chunk, and ``camsim verify``'s randomized tier
    ``verify.TRIALS_PER_CHUNK`` trials."""
    prev_key = None
    for start in range(0, count, size):
        # A suspended generator keeps its locals, so the chunk is passed
        # through a box that the yield empties.
        box = [draw(start, min(start + size, count))]
        before, prev_key = prev_key, box[0][-1]
        yield start, before, box.pop()


# Bytes of whole lines that ``read_text_lines`` reads at a time.
TEXT_BLOCK_BYTES = 1 << 16


def read_text_lines(path: Union[str, Path]) -> Iterator[str]:
    """The lines of a UTF-8 text file, whatever the locale, without a leading
    byte-order mark, read as they are iterated: the lines of the whole
    file's text, read with universal newlines and split at every newline.
    The file is opened for each ``TEXT_BLOCK_BYTES`` of whole lines and
    closed before any of them is given out, so no file is left open however
    the iteration ends. A file that does not decode is an OSError naming
    it, like any other unreadable input, at the offset of its first bad
    byte as a decoder of the whole file gives it: counted after the mark."""
    at, offset, tail = 0, 0, ""
    while True:
        with open(path, "rb") as f:
            f.seek(at)
            data = b"".join(f.readlines(TEXT_BLOCK_BYTES))
            first, at = not at, f.tell()
        if not data:
            yield tail
            return
        if first and data.startswith(BOM_UTF8):
            data = data[len(BOM_UTF8):]
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OSError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {offset + exc.start})"
            ) from exc
        offset += len(data)
        # The block ends at a newline, or at the end of the file.
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        tail = lines.pop()
        yield from lines


def content_lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is neither
    blank nor a '#' comment."""
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_words(
    source: Union[IO[str], Iterable[str]],
    width: int,
    fmt: str = "bin",
    name: Optional[str] = None,
) -> Iterator[int]:
    """The ``width``-bit int of each content line, parsed as it is read;
    parse errors cite the 1-based line number, after ``name`` (the source
    file's path) when it is given."""
    where = "" if name is None else f"{name}: "
    for lineno, line in content_lines(source):
        try:
            word = parse_word(line, width, fmt)
        except (WidthMismatch, BadDigit) as exc:
            raise type(exc)(f"{where}line {lineno}: {exc}") from exc
        yield word


def load_words(
    source: Union[IO[str], Iterable[str]],
    width: int,
    fmt: str = "bin",
    name: Optional[str] = None,
) -> Store:
    """``parse_words`` of every content line, as a ``Store``."""
    return Store(list(parse_words(source, width, fmt, name)), width)


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


# json.dumps(indent=2) text ends with this when the document's last member
# is an empty "queries" list, and with it nowhere else: deeper keys are
# indented further, and string values escape their quotes and newlines.
_LAST_EMPTY_QUERIES = '\n  "queries": []\n}'


def report_json_text(document: dict) -> str:
    """The text that ``write_report`` writes for a document, calling its
    rows callable if it has one."""
    out = io.StringIO()
    write_report(document, out)
    return out.getvalue()


def write_report(
    report: Union[dict, Sequence], destination: Union[str, Path, IO[str]]
) -> Optional[dict]:
    """Serialize a report to a path or stream, opened once: a dict is a
    JSON document, and anything else is sweep rows, written as CSV.
    Identical inputs produce byte-identical output. The text is
    ``json.dumps`` with indent 2, or ``sweep_csv_text``; NaN and infinities
    are refused before the first byte, so a refused report writes nothing
    and creates no file.

    A search report's rows are searched as they are written: its last
    member, ``"queries"``, is a callable. The members before it are written,
    then it is called with a ``QueryRows`` on the destination, writes the
    rows through ``query_summary``, and returns a dict of the members that
    follow the rows (the aggregate), which are written last and returned.
    The text is ``json.dumps`` of the document with those members, and a
    failure once the rows have begun leaves the bytes already written."""
    rows = None
    if not isinstance(report, dict):
        text = sweep_csv_text(report)
    elif callable(report.get("queries")):
        rows, text = report["queries"], _json_text({**report, "queries": []})
        if not text.endswith(_LAST_EMPTY_QUERIES):
            raise ValueError('a "queries" callable must be the last member')
        text = text[:-3]  # up to the list's opening bracket
    else:
        text = _json_text(report) + "\n"
    with (nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w", encoding="utf-8", newline="")) as out:
        out.write(text)
        if rows is None:
            return None
        written = QueryRows(out)
        after = rows(written)
        out.write("\n  ]" if written.count else "]")
        out.write("," + _json_text(after)[1:] + "\n" if after else "\n}\n")
        return after


QUERY_ROW_KEYS = ("index", "matches", "energized_count", "events", "energy")
_EVENT_KEYS = EventTotals._fields


# Rows rendered per write into a search report. A piece, about 280 bytes a
# row at 256 x 144, is held as its rows, their bytes join and its ASCII text
# while it is written, about 9 KB each at 32 rows; bytes.join of more than
# 10 rows also allocates an 80-byte buffer record a row (1.3, 2.5 and 5.1 KB
# at 16, 32 and 64 rows). The traced peak of a 2,500-query search at
# 256 x 144 (seeds 1 and 97, Python 3.11) read 0.1150 MB at 16 rows a
# piece, 0.1146 at 32 and 0.1366 at 64, whose wall time was within noise.
QUERY_ROWS_PER_CHUNK = 32


@dataclass(eq=False)
class QueryRows:
    """Where a search report's "queries" rows go: ``query_summary`` renders
    the rows of each run it is given straight into ``out``, a text stream,
    after the ``count`` rows already written, so no run outlives its call.
    ``write_report`` makes one on its destination, and opens and closes
    the list around the rows."""

    out: IO[str]
    count: int = 0


def _json_object_format(keys: Sequence[str], values: dict, indent: int) -> str:
    """A ``str.format`` template for a JSON object with these keys, laid out
    as ``json.dumps(indent=2)`` lays it out at this nesting depth: a ``{}``
    slot per key unless ``values`` holds the key's own template."""
    pad = " " * indent
    members = ",\n".join(
        f"{pad}  {json.dumps(k)}: {values.get(k, '{}')}" for k in keys
    )
    return f"{{{{\n{members}\n{pad}}}}}"


# One query row inside the top-level "queries" list, as ASCII bytes: a %d
# slot for the index, %b for the rendered match list, %d for energized_count
# and each event count in ``EventTotals`` field order, and %r for the
# energy. %d writes an int and %r a float as json.dumps writes it. bytes %
# finds each slot with memchr, where str % reads the literal a character at
# a time.
_ROW_TEMPLATE = ("    " + _json_object_format(
    QUERY_ROW_KEYS, {"events": _json_object_format(_EVENT_KEYS, {}, 6)}, 4
)).format("%d", "%b", *["%d"] * 6, "%r").encode("ascii")


class _MatchesText(dict):
    """A row's ``"matches"`` text, as ASCII bytes laid out as
    ``json.dumps(indent=2)`` lays out the list in a row: an empty list is
    looked up, and any other is rendered as it is read and not kept, so a
    run's match texts are never held together."""

    def __missing__(self, matches: tuple[int, ...]) -> bytes:
        items = b",\n        ".join(map(b"%d".__mod__, matches))
        return b"[\n        %b\n      ]" % items


_MATCHES_TEXT = _MatchesText({(): b"[]"})


def query_summary(
    run: SearchRun, energies: Sequence[float], rows: QueryRows
) -> QueryRows:
    """Render the per-query rows of a search report, keyed in
    ``QUERY_ROW_KEYS`` order, into ``rows``, which is returned. Each row
    holds a search's index, matches, energized count, event counts and
    energy (``energies[i]``, as ``energy.aggregate`` gives it for the
    search). The run is the next part of the stream after the rows already
    written: its first search is row ``rows.count``, so ``camsim search``
    calls this once per chunk, with the chunk's run. The rows are rendered
    and written ``QUERY_ROWS_PER_CHUNK`` at a time from one pass over the
    run's columns, so the call holds no more than a piece of their text
    however long the run. A non-finite energy is refused, as
    ``write_report`` refuses one, before any row of the run is written."""
    n = len(run)
    if len(energies) != n:
        raise ValueError(f"{len(energies)} energies for a run of {n} searches")
    bad = next(filterfalse(math.isfinite, energies), None)
    if bad is not None:
        _json_text(bad)  # raises
    matches = run.matches
    energized = run.energized
    first = rows.count
    texts = map(_ROW_TEMPLATE.__mod__, zip(
        range(first, first + n), map(_MATCHES_TEXT.__getitem__, matches),
        energized, run.ml_en_transitions,
        energized, map(sub, energized, map(len, matches)), run.sl_toggles,
        repeat(run.energizers), energies,
    ))
    out = rows.out
    for start in range(first, first + n, QUERY_ROWS_PER_CHUNK):
        out.write(",\n" if start else "\n")  # after the row before, or "["
        out.write(b",\n".join(islice(texts, QUERY_ROWS_PER_CHUNK)).decode("ascii"))
    rows.count += n
    return rows
