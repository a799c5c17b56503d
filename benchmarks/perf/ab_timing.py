"""Interleaved best-of-N A/B timing, shared by the overhead gates.

``perf_obs.py`` (instrumentation on vs off) and ``perf_faults.py``
(supervised vs unsupervised) both ask one question: how much slower is
variant A than variant B on the same machine?  Both answer it the same
way: the variants alternate repeat by repeat (A/B, A/B, ...) so a slow
first iteration or a background hiccup hits both alike, and the
best-of-N walls are compared.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

Variant = Tuple[str, Callable[[], None]]


def ab_overhead(treated: Variant, baseline: Variant, repeats: int) -> Dict[str, float]:
    """Best-of-``repeats`` walls of two interleaved variants.

    Returns ``{"<treated>_s", "<baseline>_s", "overhead"}`` where
    ``overhead`` is the treated best wall over the baseline best wall,
    minus one (all rounded to 4 places).
    """
    best: Dict[str, float] = {}
    for _ in range(repeats):
        for name, fn in (treated, baseline):
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
            best[name] = min(best.get(name, wall), wall)
    a, b = treated[0], baseline[0]
    return {
        f"{a}_s": round(best[a], 4),
        f"{b}_s": round(best[b], 4),
        "overhead": round(best[a] / best[b] - 1.0, 4),
    }
