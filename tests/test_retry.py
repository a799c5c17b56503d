"""The shared capped exponential backoff."""

import pytest

from repro.retry import backoff_delay
from repro.spec.runner import SupervisionPolicy


def test_delay_doubles_per_attempt_then_caps():
    delays = [backoff_delay(k, 0.25, 1.0, jitter=0.0) for k in range(1, 6)]
    assert delays == [0.25, 0.5, 1.0, 1.0, 1.0]


def test_attempt_zero_waits_the_base():
    assert backoff_delay(0, 0.2, 2.0, jitter=0.0) == 0.2


def test_jitter_stretches_by_at_most_its_fraction():
    for _ in range(200):
        delay = backoff_delay(3, 0.1, 5.0, jitter=0.25)
        assert 0.4 <= delay <= 0.4 * 1.25


@pytest.mark.parametrize("attempt", [1, 2, 5, 9])
def test_supervision_policy_uses_the_shared_formula(attempt):
    policy = SupervisionPolicy(backoff_base_s=0.05, backoff_cap_s=2.0,
                               jitter=0.0)
    assert policy.backoff_delay(attempt) == backoff_delay(
        attempt, 0.05, 2.0, jitter=0.0
    )
