"""Workload generation, dataset/query file ingestion, report serialization.

All randomness comes from the counter-based draws in ``camsim.draws``, so a
workload is identical whatever order its values are drawn in, on any
platform.

Word files and model files are line-oriented UTF-8 text, read through
``read_text_lines`` and ``content_lines``: '#'-prefixed lines and blank
lines are ignored. A word file holds one fixed-width binary or hex word per
line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .core import _SEED_LIMIT, BitWord, parse_word
from .draws import blocks, draw_bits, draw_pick, draw_unit, unit_threshold
from .errors import BadDigit, EmptyStore, InvalidConfig, WidthMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .array import SearchReport

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
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidConfig("seed must fit in 64 unsigned bits")
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


def gen_words(count: int, width: int, seed: int) -> list[BitWord]:
    """Uniform independent bits, deterministic for a fixed seed."""
    if count < 1 or width < 1:
        raise InvalidConfig("count and width must be >= 1")
    return [
        BitWord(width, draw_bits(_TAG_WORDS, seed, i, width)) for i in range(count)
    ]


def gen_queries(workload: WorkloadSpec, words: Sequence[BitWord]) -> list[BitWord]:
    """Query stream for the given recipe; query i depends only on (seed, i)
    and the stored words, never on evaluation order."""
    if not words:
        raise EmptyStore("query generation needs at least one stored word")
    width = words[0].width
    seed = workload.seed

    out = []
    if workload.kind is WorkloadKind.UNIFORM:
        for i in range(workload.num_queries):
            out.append(BitWord(width, draw_bits(_TAG_QUERY, seed, i, width)))
    elif workload.kind is WorkloadKind.PLANTED:
        for i in range(workload.num_queries):
            if draw_unit(_TAG_DECISION, seed, i) < workload.match_rate:
                out.append(words[draw_pick(_TAG_PICK, seed, i, len(words))])
            else:
                out.append(BitWord(width, draw_bits(_TAG_QUERY, seed, i, width)))
    else:
        # Bit pos keeps the anchor's bit when its 32-bit word x has
        # x / 2**32 < bias, so the flip mask has a 1 wherever x >= threshold.
        anchor = words[0].value
        threshold = unit_threshold(workload.bias)
        unpack = struct.Struct(f">{width}I").unpack
        for i in range(workload.num_queries):
            xs = unpack(blocks(_TAG_SKEW, seed, i, 4 * width))
            flips = "".join(["0" if x < threshold else "1" for x in xs])
            out.append(BitWord(width, anchor ^ int(flips, 2)))
    return out


def read_text_lines(path: Union[str, Path]) -> list[str]:
    """The lines of a UTF-8 text file, whatever the locale. A file that does
    not decode is an OSError naming it, like any other unreadable input."""
    try:
        return Path(path).read_text(encoding="utf-8").split("\n")
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
    source: Union[IO[str], Iterable[str]], width: int, fmt: str = "bin"
) -> list[BitWord]:
    """Parse one word per content line; parse errors cite the 1-based line
    number."""
    out = []
    for lineno, line in content_lines(source):
        try:
            out.append(parse_word(line, width, fmt))
        except (WidthMismatch, BadDigit) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    return out


def dump_words(words: Sequence[BitWord], stream: IO[str], fmt: str = "bin") -> None:
    for w in words:
        stream.write(w.to_text(fmt))
        stream.write("\n")


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


def report_json_text(document: dict) -> str:
    """Pretty-printed JSON; NaN and infinities are rejected because they are
    not valid JSON."""
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InvalidConfig(f"report holds a non-finite number: {exc}") from exc


def write_report(
    report: Union[dict, Sequence],
    destination: Union[str, Path, IO[str]],
    fmt: str = "json",
) -> None:
    """Serialize a report document (json) or sweep rows (csv) to a path or
    stream. Identical inputs produce byte-identical output."""
    if fmt == "json":
        if not isinstance(report, dict):
            raise ValueError("json reports expect a document dict")
        text = report_json_text(report)
    elif fmt == "csv":
        text = sweep_csv_text(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if hasattr(destination, "write"):
        destination.write(text)  # type: ignore[union-attr]
    else:
        Path(destination).write_text(text, encoding="utf-8", newline="")


def query_summary(index: int, report: "SearchReport") -> dict:
    """Per-query summary entry embedded in JSON reports."""
    return {
        "index": index,
        "matches": list(report.matches),
        "energized_count": report.energized_count,
        "events": report.event_totals.to_dict(),
        "energy": report.energy_total,
    }
