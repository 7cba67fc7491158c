"""Pins for the counter-based draws and the workloads built from them.

The digests were recorded before the draw layer was last rewritten, so a
change to any drawn bit fails here and not only in a golden report. Each
digest covers seeds 0, 1 and 97.
"""

import math
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim.core import CamConfig
from camsim.draws import Stream, threshold_bits, unit_threshold
from camsim.errors import InvalidConfig
from camsim.verify import verify_exhaustive, verify_randomized
from camsim.workload import (
    SKEWED_QUERIES_PER_BATCH,
    WorkloadKind,
    WorkloadSpec,
    gen_queries,
    gen_words,
)

WIDTHS = (3, 8, 13, 144)
SEEDS = (0, 1, 97)
# 0.75 puts bias * 2**32 on an exact integer; the ends sit half a step
# inside (0, 1).
BIASES = {"2^-33": 2**-33, "0.5": 0.5, "0.75": 0.75, "0.9": 0.9, "1-2^-33": 1 - 2**-33}
NUM_WORDS = 16
NUM_QUERIES = 40
NUM_DRAWS = 200

# verify.py's stream tags
_TAG_STORE = b"verify-store"
_TAG_TRIAL = b"verify-trial"
_TAG_STYLE = b"verify-style"
_TAG_FLIP = b"verify-flip"

PINS = {
    "words-3": "4c25617c82219814ea21c08c60d5e370",
    "words-8": "e79e5ae3be46f15eea100c6bdef6ce26",
    "words-13": "f3185393a907eabaf55fd79245752d3c",
    "words-144": "c2adc2f5acb9517e843b4039b8fb9e41",
    "uniform-3": "55e47bcd44b8a48e8e38c5014a9324b1",
    "uniform-8": "9a3a34feca83e00753ca055ddf11f222",
    "uniform-13": "55e10c667b610b05febac83fd9720261",
    "uniform-144": "724df8e4fef5fb2db075de2341dbba4f",
    "planted-3": "ab4202c5fe415869ed7f40ef3c8ccd3d",
    "planted-8": "b1e708f3ea94c478c4c9702794a02b58",
    "planted-13": "64c0a0d947ed08f589b3ac64f19fdc49",
    "planted-144": "62427ccd8a9ebe81a6426d0db4b5313c",
    "skewed-3-2^-33": "d6e27dfec30dd5805cb8d29bd1341c02",
    "skewed-3-0.5": "3af7d3f91db40b0300603fd3fc9698d8",
    "skewed-3-0.75": "896b89e8307d64c6fb8c8bcea0caa716",
    "skewed-3-0.9": "2823344e8fc4bbe4fedef954bd68236c",
    "skewed-3-1-2^-33": "0c8eb9953d24e16ee914e4f22b29c3db",
    "skewed-8-2^-33": "06a32fe75b30ef15e6e95850d8563bb2",
    "skewed-8-0.5": "4c77a88c8d298f76ec44738e78735950",
    "skewed-8-0.75": "ddc86720bce7617dc34717ec993c6dcf",
    "skewed-8-0.9": "eb45f6d9b05a0427dbfe57b1cc984643",
    "skewed-8-1-2^-33": "aed7973a68cbc1c7fcb36de93a355340",
    "skewed-13-2^-33": "b7922993a8ffd4bbb5710a356aba1e81",
    "skewed-13-0.5": "990ad122fded96ca5d66a772c77e0125",
    "skewed-13-0.75": "f614f3bab7cbfd31705eab9aea65b460",
    "skewed-13-0.9": "14a9604d1444c2f12a316172d010c400",
    "skewed-13-1-2^-33": "25391b11dcf84c44e0aa6ff38a20a3fa",
    "skewed-144-2^-33": "720e3fef4f3037b311d5775483607b76",
    "skewed-144-0.5": "c4c6cda86a479ddea1059da0d27bb2e9",
    "skewed-144-0.75": "8c5ed892c2c10cca85ea34b48df2f2ae",
    "skewed-144-0.9": "b0d195d41c0ffcd2d70f0d9fd736c8f6",
    "skewed-144-1-2^-33": "ba8128886ab61b0b3bd2598d3a71a29b",
    "unit": "4ec9cd99ed55b197de9adcd2633f5b93",
    "pick": "c6553fa5cccbbd1871bd43e344c6dacf",
    "bits": "f7458199d9f05eeec920cbbcfaf048e6",
}


def _digest(lines) -> str:
    h = blake2b(digest_size=16)
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


def _texts(words):
    """The stored words as binary text, as ``word_text`` writes one."""
    return [format(value, f"0{words.width}b") for value in words]


def _query_texts(kind, width, seed, **params):
    """The query keys as binary text, width digits each, as ``word_text``
    writes a word."""
    words = gen_words(NUM_WORDS, width, seed)
    keys = gen_queries(WorkloadSpec(kind, NUM_QUERIES, seed, **params), words)
    return [format(key, f"0{width}b") for key in keys]


def _outputs(case: str) -> list[str]:
    """Text lines of the outputs one pin covers, over every seed."""
    name, *rest = case.split("-", 1)
    lines = []
    for seed in SEEDS:
        lines.append(f"seed {seed}")
        if name == "words":
            lines += _texts(gen_words(NUM_WORDS, int(rest[0]), seed))
        elif name == "uniform":
            lines += _query_texts(WorkloadKind.UNIFORM, int(rest[0]), seed)
        elif name == "planted":
            lines += _query_texts(
                WorkloadKind.PLANTED, int(rest[0]), seed, match_rate=0.5
            )
        elif name == "skewed":
            width, bias = rest[0].split("-", 1)
            lines += _query_texts(
                WorkloadKind.PREFIX_SKEWED, int(width), seed, bias=BIASES[bias]
            )
        elif name == "unit":
            stream = Stream(_TAG_STYLE, seed)
            lines += [stream.unit(i).hex() for i in range(NUM_DRAWS)]
        elif name == "pick":
            for tag, count in ((_TAG_TRIAL, 256), (_TAG_TRIAL, 3), (_TAG_FLIP, 144)):
                stream = Stream(tag, seed)
                lines += [str(stream.pick(i, count)) for i in range(NUM_DRAWS)]
        elif name == "bits":
            for tag in (_TAG_TRIAL, _TAG_STORE):
                stream = Stream(tag, seed)
                for width in WIDTHS:
                    lines += [
                        format(stream.bits(i, width), "x") for i in range(NUM_DRAWS)
                    ]
        else:
            raise KeyError(case)
    return lines


CASES = [
    *(f"{name}-{w}" for name in ("words", "uniform", "planted") for w in WIDTHS),
    *(f"skewed-{w}-{b}" for w in WIDTHS for b in BIASES),
    "unit",
    "pick",
    "bits",
]


@pytest.mark.parametrize("case", CASES)
def test_draw_outputs_match_pins(case):
    assert _digest(_outputs(case)) == PINS[case]


def _reference_blocks(tag: bytes, seed: int, index: int, nbytes: int) -> bytes:
    """One fresh hasher and four updates per 32-byte block."""
    out = bytearray()
    for block in range((nbytes + 31) // 32):
        h = blake2b(digest_size=32)
        h.update(tag)
        h.update(seed.to_bytes(8, "big"))
        h.update(index.to_bytes(8, "big"))
        h.update(block.to_bytes(4, "big"))
        out.extend(h.digest())
    return bytes(out[:nbytes])


@pytest.mark.parametrize(
    "tag, seed, index",
    [(b"words", 0, 0), (b"skew", 97, 12345), (b"", 2**64 - 1, 2**64 - 1)],
)
def test_blocks_equal_the_four_update_reference(tag, seed, index):
    stream = Stream(tag, seed)
    for nbytes in range(1, 101):
        assert stream.blocks(index, nbytes) == _reference_blocks(
            tag, seed, index, nbytes
        )


@pytest.mark.parametrize("width", (1, 3, 144, 256, 257))
def test_bits_column_equals_one_draw_per_index(width):
    # 257 bits need a second block, so the column falls back to ``bits``.
    for seed in SEEDS:
        stream = Stream(b"column", seed)
        expected = [stream.bits(i, width) for i in range(NUM_DRAWS)]
        assert stream.bits_column(NUM_DRAWS, width) == expected
        assert stream.bits_column(50, width, start=120) == expected[120:170]
        assert stream.bits_column(0, width) == []


@pytest.mark.parametrize("start", (0, 7, 2**64 - 40))
def test_blocks_column_joins_one_draw_per_index(start):
    # Sizes that end inside a block cut each draw's last block; 0 draws
    # give an empty buffer.
    stream = Stream(b"skew", 97)
    for nbytes in (1, 12, 31, 32, 33, 52, 64, 100, 576):
        for count in (0, 1, 5):
            assert stream.blocks_column(count, nbytes, start) == b"".join(
                _reference_blocks(b"skew", 97, i, nbytes)
                for i in range(start, start + count)
            ), (nbytes, count)


def test_a_stream_keeps_no_state_between_draws():
    stream = Stream(b"query", 97)
    forward = [stream.blocks(i, 40) for i in range(NUM_DRAWS)]
    backward = [stream.blocks(i, 40) for i in reversed(range(NUM_DRAWS))]
    assert backward[::-1] == forward
    assert [stream.blocks(i, 40) for i in range(NUM_DRAWS)] == forward
    for width in (3, 144):
        column = stream.bits_column(NUM_DRAWS, width)
        assert stream.bits_column(NUM_DRAWS, width) == column
        backward = [stream.bits(i, width) for i in reversed(range(NUM_DRAWS))]
        assert backward == column[::-1]
    units = [stream.unit(i) for i in range(NUM_DRAWS)]
    assert [stream.unit(i) for i in reversed(range(NUM_DRAWS))] == units[::-1]
    assert units == [stream.unit(i) for i in range(NUM_DRAWS)]


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_a_seed_outside_64_unsigned_bits_is_invalid_config(seed):
    calls = [
        lambda: Stream(b"words", seed),
        lambda: gen_words(4, 8, seed),
        lambda: verify_exhaustive(seed=seed),
        lambda: verify_randomized(CamConfig(16, 12, 3), 5, seed=seed),
    ]
    for call in calls:
        with pytest.raises(InvalidConfig, match="^seed must fit in 64 unsigned bits$"):
            call()


def _reference_skewed(workload: WorkloadSpec, words) -> list[int]:
    """The per-bit form, as query keys: a float unit draw per bit against
    the bias."""
    anchor, width = words[0], words.width
    out = []
    for i in range(workload.num_queries):
        raw = _reference_blocks(b"skew", workload.seed, i, 4 * width)
        value = 0
        for pos in range(width):
            u = int.from_bytes(raw[4 * pos : 4 * pos + 4], "big") / 2.0**32
            bit = anchor >> (width - 1 - pos) & 1
            bit = bit if u < workload.bias else 1 - bit
            value = (value << 1) | bit
        out.append(value)
    return out


@pytest.mark.parametrize("width", WIDTHS)
def test_skewed_queries_equal_the_per_bit_reference(width):
    words = gen_words(NUM_WORDS, width, 5)
    for i in range(20):
        bias = min(max(Stream(b"test-bias", width).unit(i), 2**-33), 1 - 2**-33)
        spec = WorkloadSpec(WorkloadKind.PREFIX_SKEWED, 10, i, bias=bias)
        assert gen_queries(spec, words) == _reference_skewed(spec, words)


def _reference_planted(workload: WorkloadSpec, words) -> list[int]:
    """One decision, pick or query draw per call, as query keys."""
    decision, pick, query = (
        Stream(tag, workload.seed)
        for tag in (b"plant-decision", b"plant-pick", b"query")
    )
    return [
        words[pick.pick(i, len(words))]
        if decision.unit(i) < workload.match_rate
        else query.bits(i, words.width)
        for i in range(workload.num_queries)
    ]


def _tie_heavy_bias(seed: int, width: int, count: int) -> float:
    """A bias whose threshold has the top byte that the most skew words of
    the first ``count`` queries share, with low bits at the median of those
    words', so the most words tie and the ties fall both ways."""
    raw = b"".join(_reference_blocks(b"skew", seed, i, 4 * width) for i in range(count))
    tops = raw[0::4]
    top = max(range(256), key=tops.count)
    lows = sorted(
        int.from_bytes(raw[i + 1 : i + 4], "big")
        for i in range(0, len(raw), 4)
        if raw[i] == top
    )
    return (top << 24 | lows[len(lows) // 2]) / 2**32


B = SKEWED_QUERIES_PER_BATCH
# Ranges that start and end inside a batch, on its edges, and across
# several batches, for a stream of 3B + 5 queries.
BATCH_RANGES = [(3, 37), (15, 17), (0, 1), (B - 1, B + 1), (B, 2 * B), (1, 3 * B + 4),
                (2 * B + 3, 3 * B + 5), (3 * B + 4, 3 * B + 5), (0, 3 * B + 5), (9, 9)]


@pytest.mark.parametrize("width", (3, 13, 144))
@pytest.mark.parametrize("kind", ("prefix-skewed", "planted"))
def test_a_range_across_batches_is_that_slice_of_the_per_query_draws(kind, width):
    total = 3 * B + 5
    assert total >= 37
    words = gen_words(NUM_WORDS, width, 3)
    if kind == "planted":
        specs = [WorkloadSpec(WorkloadKind.PLANTED, total, seed, match_rate=rate)
                 for seed in SEEDS for rate in (0.0, 0.3, 1.0)]
        reference = _reference_planted
    else:
        biases = [0.9, 1 - 2**-33, _tie_heavy_bias(11, width, total)]
        specs = [WorkloadSpec(WorkloadKind.PREFIX_SKEWED, total, seed, bias=bias)
                 for seed in (11, 97) for bias in biases]
        reference = _reference_skewed
    for spec in specs:
        whole = reference(spec, words)
        for start, stop in BATCH_RANGES:
            assert gen_queries(spec, words, start, stop) == whole[start:stop], (
                spec, start, stop
            )


@pytest.mark.parametrize("width", (3, 13, 144))
def test_the_tie_heavy_bias_puts_many_words_on_the_threshold(width):
    # Its top byte is the most common one, so more words take the tie path
    # than under any other threshold, and they fall on both sides of it.
    total = 3 * B + 5
    bias = _tie_heavy_bias(11, width, total)
    threshold = unit_threshold(bias)
    raw = b"".join(_reference_blocks(b"skew", 11, i, 4 * width) for i in range(total))
    ties = [int.from_bytes(raw[i : i + 4], "big")
            for i in range(0, len(raw), 4) if raw[i] == threshold >> 24]
    assert len(ties) * 256 > len(raw) // 4  # more than a byte's share
    assert min(ties) < threshold <= max(ties)


def test_integer_threshold_matches_the_float_test_at_the_boundary():
    biases = [
        *BIASES.values(),
        math.nextafter(0.5, 0),
        math.nextafter(0.5, 1),
        1 / 3,
        0.1,
        *map(Stream(b"test-bias", 0).unit, range(500)),
    ]
    for bias in biases:
        t = unit_threshold(bias)
        for x in (t - 1, t, t + 1):
            if 0 <= x < 2**32:
                assert (x < t) == (x / 2.0**32 < bias), (bias, x)


def _reference_threshold_bits(raw: bytes, threshold: int) -> bytes:
    """The per-word integer test: b"1" where the 32-bit word x >= threshold."""
    return b"".join(
        b"1" if int.from_bytes(raw[i : i + 4], "big") >= threshold else b"0"
        for i in range(0, len(raw), 4)
    )


def _pack(xs) -> bytes:
    return b"".join(x.to_bytes(4, "big") for x in xs)


KERNEL_THRESHOLDS = {
    "1": 1,
    "2^24-1": 2**24 - 1,
    "2^24": 2**24,
    "2^24+1": 2**24 + 1,
    "0.9": unit_threshold(0.9),
    "2^32-1": 2**32 - 1,
    "2^32": 2**32,
}


def _crafted_words(threshold: int) -> list[int]:
    """Both ends of the word range, the threshold's neighbours, the words
    one top byte either side of it, and the ties: words with the threshold's
    top byte whose low 24 bits are low - 1, low and low + 1."""
    top, low = divmod(threshold, 2**24)
    xs = {0, 2**32 - 1, threshold - 1, threshold, threshold + 1}
    xs |= {(top + d) << 24 | low for d in (-1, 1)}
    xs |= {top << 24 | (low + d) for d in (-1, 0, 1) if 0 <= low + d < 2**24}
    return sorted(x for x in xs if 0 <= x < 2**32)


def _windows(xs: list[int], width: int) -> list[bytes]:
    """Every cyclic run of ``width`` words of ``xs``, packed."""
    return [_pack((xs * width)[i : i + width]) for i in range(len(xs))]


@pytest.mark.parametrize("name", KERNEL_THRESHOLDS)
def test_threshold_bits_equal_the_integer_test_at_the_edges(name):
    threshold = KERNEL_THRESHOLDS[name]
    top = threshold >> 24
    xs = _crafted_words(threshold)
    ties = 0
    for width in (1, 3, 144):
        for raw in _windows(xs, width):
            assert threshold_bits(raw, threshold) == _reference_threshold_bits(
                raw, threshold
            ), (name, width, raw.hex())
            ties += raw[0::4].count(top) if top < 256 else 0
    # Every threshold below 2**32 has tie words, so the low-bit path runs.
    assert (ties > 0) == (threshold < 2**32)


@st.composite
def _kernel_cases(draw):
    """Random words and a threshold, with some words moved onto the
    threshold's top byte (ties), a few of them with low bits next to its."""
    threshold = draw(st.integers(0, 2**32))
    top, low = divmod(threshold, 2**24)
    width = draw(st.integers(1, 160))
    raw = bytearray(draw(st.binary(min_size=4 * width, max_size=4 * width)))
    if top < 256:
        spots = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=8))
        for pos in spots:
            raw[4 * pos] = top
            d = draw(st.one_of(st.none(), st.integers(-1, 1)))
            if d is not None and 0 <= low + d < 2**24:
                raw[4 * pos + 1 : 4 * pos + 4] = (low + d).to_bytes(3, "big")
    return bytes(raw), threshold


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_threshold_bits_equal_the_integer_test_on_random_words(case):
    raw, threshold = case
    assert threshold_bits(raw, threshold) == _reference_threshold_bits(raw, threshold)
    if threshold < 2**32:
        assert threshold >> 24 in raw[0::4]  # the tie path runs
