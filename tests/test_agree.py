"""The verbs agree: ``search``, ``compare`` and ``sweep`` price one key
stream through three folds, and every count and energy they report for it
is the same, bit for bit, however the stream is cut into key chunks."""

from __future__ import annotations

import contextlib
import io
import json
import os
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camsim.cli
from camsim.cli import main
from camsim.workload import _key_chunks


def _workload_flags(draw) -> list[str]:
    kind = draw(st.sampled_from(["uniform", "planted", "prefix-skewed"]))
    if kind == "planted":
        return ["--workload", kind, "--match-rate", str(draw(st.sampled_from(
            [0.0, 0.25, 0.5, 1.0])))]
    if kind == "prefix-skewed":
        return ["--workload", kind, "--bias", str(draw(st.sampled_from(
            [0.1, 0.5, 0.9, 0.99])))]
    return ["--workload", kind]


@st.composite
def _runs(draw):
    """The flags of one small run, and a key chunk size that cuts it into
    many chunks."""
    width = draw(st.integers(4, 24))
    k = draw(st.integers(2, min(6, width - 1)))
    flags = [
        "--num-words", str(draw(st.integers(1, 64))), "--width", str(width),
        "--mle-bits", str(k), "--seed", str(draw(st.integers(0, 2**16))),
        "--queries", str(draw(st.integers(1, 120))), *_workload_flags(draw),
    ]
    return flags, k, draw(st.integers(1, 17))


def _verbs(flags: list[str], k: int, size: int) -> dict:
    """What each verb reports for one run, with its keys cut into chunks
    of ``size``: both search aggregates, compare's two blocks and the
    sweep row at ``k`` as ``sweep_mle_bits`` returns it."""
    rows = []

    def sweep(*args, **kwargs):
        rows.extend(real_sweep(*args, **kwargs))
        return rows

    real_sweep = camsim.cli.sweep_mle_bits
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()) as stdout:
        patch.setattr(camsim.cli, "_key_chunks", partial(_key_chunks, size=size))
        patch.setattr(camsim.cli, "sweep_mle_bits", sweep)
        reports = {}
        for variant in ("selective", "baseline-nor"):
            stdout.seek(0), stdout.truncate()
            assert main(["search", *flags, "--variant", variant, "--out", "-"]) == 0
            reports[variant] = json.loads(stdout.getvalue())["aggregate"]
        stdout.seek(0), stdout.truncate()
        assert main(["compare", *flags, "--out", "-"]) == 0
        reports["compare"] = json.loads(stdout.getvalue())
        assert main(["sweep", *flags, "--k-min", str(k), "--k-max", str(k),
                     "--out", os.devnull]) == 0
    (reports["sweep"],) = rows
    return reports


@settings(max_examples=60, deadline=None)
@given(_runs())
def test_search_compare_and_sweep_agree_at_any_chunk_size(run):
    flags, k, size = run
    num_queries = int(flags[flags.index("--queries") + 1])
    cut, whole = _verbs(flags, k, size), _verbs(flags, k, num_queries)
    assert cut == whole
    assert cut["selective"] == cut["compare"]["selective"]
    assert cut["baseline-nor"] == cut["compare"]["baseline_nor"]
    search = cut["selective"]
    row = cut["sweep"]
    assert row.k == k
    assert row.mean_energized_fraction == search["mean_energized_fraction"]
    assert row.energy_metric == search["energy_metric"]
    assert row.mean_delay == search["delay_per_search"]
