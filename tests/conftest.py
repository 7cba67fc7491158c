"""Fixtures shared by the test modules."""

from typing import NamedTuple

import pytest

import camsim.verify
from camsim import BitWord, VerifyOutcome, verify_exhaustive


class ExhaustiveTier(NamedTuple):
    """One recorded ``verify_exhaustive(1)`` run of the sound build."""

    outcome: VerifyOutcome
    # (config, words, query keys, context) of each store checked, in order
    stores: list
    # (variant, queries streamed) of each run_search_stream call
    streams: list
    # the number of oracle scans
    scans: int


@pytest.fixture(scope="session")
def exhaustive_tier():
    """Every store and query universe of the verifier's exhaustive tier,
    recorded once per session, with the stream calls and oracle scans that
    checking them took."""
    stores, streams, scans = [], [], []
    check = camsim.verify._check_columns
    stream = camsim.verify.run_search_stream
    oracle = camsim.verify.oracle_search

    def recorded(store, keys, key_columns, engine, context, *rest):
        arrays, values, *_ = store
        config = arrays[0].config
        words = [BitWord(config.word_bits, v) for v in values]
        stores.append((config, words, keys, context))
        return check(store, keys, key_columns, engine, context, *rest)

    def counted_stream(arr, keys, prev_key=None, *rest):
        run = stream(arr, keys, prev_key, *rest)
        streams.append((arr.variant, len(run)))
        return run

    def counted_oracle(values, key):
        scans.append(key)
        return oracle(values, key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(camsim.verify, "_check_columns", recorded)
        patch.setattr(camsim.verify, "run_search_stream", counted_stream)
        patch.setattr(camsim.verify, "oracle_search", counted_oracle)
        outcome = verify_exhaustive(1)
    return ExhaustiveTier(outcome, stores, streams, len(scans))
