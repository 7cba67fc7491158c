"""Workload generation, dataset/query file ingestion, report serialization.

All randomness is counter-based: every drawn value is a hash of
(stream tag, seed, index), so a workload is identical whatever order its
values are drawn in, on any platform.

Word files are line-oriented text: one fixed-width binary or hex word per
line, '#'-prefixed lines and blank lines ignored.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .core import _SEED_LIMIT, BitWord, parse_word
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


def _blocks(tag: bytes, seed: int, index: int, nbytes: int) -> bytes:
    """Concatenated 32-byte digest blocks for one (tag, seed, index) draw."""
    out = bytearray()
    for block in range((nbytes + 31) // 32):
        h = blake2b(digest_size=32)
        h.update(tag)
        h.update(seed.to_bytes(8, "big"))
        h.update(index.to_bytes(8, "big"))
        h.update(block.to_bytes(4, "big"))
        out.extend(h.digest())
    return bytes(out[:nbytes])


def _draw_bits(tag: bytes, seed: int, index: int, width: int) -> int:
    nbytes = (width + 7) // 8
    raw = int.from_bytes(_blocks(tag, seed, index, nbytes), "big")
    return raw >> (8 * nbytes - width)


def _draw_unit(tag: bytes, seed: int, index: int) -> float:
    raw = int.from_bytes(_blocks(tag, seed, index, 8), "big")
    return raw / 2.0 ** 64


def _draw_pick(tag: bytes, seed: int, index: int, count: int) -> int:
    raw = int.from_bytes(_blocks(tag, seed, index, 8), "big")
    return raw % count


def gen_words(count: int, width: int, seed: int) -> list[BitWord]:
    """Uniform independent bits, deterministic for a fixed seed."""
    if count < 1 or width < 1:
        raise InvalidConfig("count and width must be >= 1")
    return [
        BitWord(width, _draw_bits(_TAG_WORDS, seed, i, width)) for i in range(count)
    ]


def gen_queries(workload: WorkloadSpec, words: Sequence[BitWord]) -> list[BitWord]:
    """Query stream for the given recipe; query i depends only on (seed, i)
    and the stored words, never on evaluation order."""
    if workload.kind is WorkloadKind.PLANTED and not words:
        raise EmptyStore("planted workload needs at least one stored word")
    if not words:
        raise EmptyStore("query generation needs the stored words for their width")
    width = words[0].width
    seed = workload.seed

    out = []
    if workload.kind is WorkloadKind.UNIFORM:
        for i in range(workload.num_queries):
            out.append(BitWord(width, _draw_bits(_TAG_QUERY, seed, i, width)))
    elif workload.kind is WorkloadKind.PLANTED:
        for i in range(workload.num_queries):
            if _draw_unit(_TAG_DECISION, seed, i) < workload.match_rate:
                out.append(words[_draw_pick(_TAG_PICK, seed, i, len(words))])
            else:
                out.append(BitWord(width, _draw_bits(_TAG_QUERY, seed, i, width)))
    else:
        anchor = words[0]
        for i in range(workload.num_queries):
            raw = _blocks(_TAG_SKEW, seed, i, 4 * width)
            value = 0
            for pos in range(width):
                u = int.from_bytes(raw[4 * pos : 4 * pos + 4], "big") / 2.0 ** 32
                bit = anchor.bit(pos) if u < workload.bias else 1 - anchor.bit(pos)
                value = (value << 1) | bit
            out.append(BitWord(width, value))
    return out


def _lines(source: Union[IO[str], Iterable[str]]) -> Iterable[str]:
    if hasattr(source, "read"):
        return source  # type: ignore[return-value]
    return iter(source)


def load_words(
    source: Union[IO[str], Iterable[str]], width: int, fmt: str = "bin"
) -> list[BitWord]:
    """Parse one word per non-comment line; parse errors cite the 1-based
    line number."""
    out = []
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
