import pytest

from camsim import CamConfig, InvalidConfig, verify_randomized


def test_verify_randomized_rejects_negative_trials():
    with pytest.raises(InvalidConfig, match="trials"):
        verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), -5)


def test_verify_randomized_zero_trials_is_an_empty_pass():
    out = verify_randomized(CamConfig(num_words=8, word_bits=8, mle_bits=3), 0)
    assert out.ok and out.cases == 0
