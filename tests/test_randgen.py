import re

import pytest

from exactdet.randgen import SplitMix64, mix64, random_matrix, trial_stream

MASK = (1 << 64) - 1


def reference_mix(z):
    # independent transcription of the documented mixing function
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def test_mix_matches_documented_algorithm():
    for z in (0, 1, 42, 0xDEADBEEF, MASK):
        assert mix64(z) == reference_mix(z)


def test_stream_update_rule():
    gen = SplitMix64(7)
    first = gen.next_u64()
    assert first == reference_mix((7 + 0x9E3779B97F4A7C15) & MASK)
    second = gen.next_u64()
    assert second == reference_mix((7 + 2 * 0x9E3779B97F4A7C15) & MASK)


def test_trial_stream_derivation():
    assert trial_stream(42, 3).state == (reference_mix(42) + 3) & MASK


def test_bounded_draws_stay_in_range():
    gen = SplitMix64(1)
    values = [gen.next_int(-9, 9) for _ in range(500)]
    assert min(values) >= -9 and max(values) <= 9
    assert len(set(values)) > 10  # not degenerate


def test_matrix_determinism():
    a = random_matrix(trial_stream(5, 2), 4, 4, 9)
    b = random_matrix(trial_stream(5, 2), 4, 4, 9)
    assert a == b


def test_trials_are_independent_of_consumption():
    # drawing extra values in trial 0 must not change trial 1
    gen0 = trial_stream(5, 0)
    for _ in range(17):
        gen0.next_u64()
    assert random_matrix(trial_stream(5, 1), 3, 3, 9) == random_matrix(
        trial_stream(5, 1), 3, 3, 9
    )


def test_different_trials_differ():
    a = random_matrix(trial_stream(5, 0), 4, 4, 9)
    b = random_matrix(trial_stream(5, 1), 4, 4, 9)
    assert a != b


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: SplitMix64(1).next_int(2, 1), "empty range [2, 1]", id="empty-range"),
        pytest.param(lambda: trial_stream(0, -1), "trial index must be >= 0", id="negative-trial"),
        pytest.param(
            lambda: random_matrix(SplitMix64(1), 2, 2, -1),
            "entry bound must be >= 0",
            id="negative-bound",
        ),
    ],
)
def test_validation_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
