"""Capped exponential backoff with jitter, shared by every retry loop.

Three places wait before trying again: the sweep supervisor between
attempts of a crashed or timed-out payload
(:meth:`repro.spec.runner.SupervisionPolicy.backoff_delay`), the HTTP
client between connection attempts (:class:`repro.serve.client.ServiceClient`)
and the service before it requeues a failed job.  Each keeps its own
base, cap and jitter; the formula lives here once.
"""

from __future__ import annotations

import random


def backoff_delay(
    attempt: int, base_s: float, cap_s: float, jitter: float = 0.25
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    ``min(cap_s, base_s * 2**(attempt-1))``, stretched by up to a
    ``jitter`` fraction of random jitter so retrying clients do not move
    in lock-step.  Timing only: no result depends on it.
    """
    delay = min(cap_s, base_s * (2.0 ** max(0, attempt - 1)))
    if jitter:
        delay *= 1.0 + jitter * random.random()
    return delay
