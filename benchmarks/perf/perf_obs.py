"""Instrumentation-overhead harness: obs enabled vs disabled.

The :mod:`repro.obs` layer instruments the kernel, pool, store, and
sweep paths with counters and histograms that are **on by default**.
The design contract is that this costs nothing measurable: updates
happen per run / per chunk / per batch, never per simulation step, so
an instrumented-but-unexported run must stay within
``OVERHEAD_CEILING`` (3%) of the same run with observability disabled.
This harness enforces that contract::

    PYTHONPATH=src python benchmarks/perf/perf_obs.py
    PYTHONPATH=src python benchmarks/perf/perf_obs.py --repeats 7

Two cases, mirroring the regimes BENCH_kernel and BENCH_sweep gate:

* **kernel** — one fig7 fast-kernel run (the chunked steady-state
  regime long experiments live in);
* **sweep** — a small serial sweep through the SweepRunner (the
  per-point orchestration path: progress events, store-less batches).

Timings interleave the enabled and disabled variants repeat-by-repeat
(A/B, A/B, ...) and compare **best-of-N** walls, so a slow first
iteration or a background hiccup hits both sides alike.  Tracing stays
off throughout — span capture is opt-in and not part of the
default-cost contract this gate protects.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from ab_timing import ab_overhead
from repro import obs
from repro.spec.presets import preset
from repro.spec.runner import SweepRunner

#: Enabled wall time may exceed disabled wall time by at most this
#: fraction (best-of-N vs best-of-N on the same machine).
OVERHEAD_CEILING = 0.03

#: The kernel case: fig7 under the fast kernel, long enough that the
#: chunked regime dominates and walls are well clear of timer noise
#: (a 3% ceiling needs hundreds of milliseconds, not tens) but short
#: enough for CI.  Matches the BENCH_kernel fig7 case duration.
KERNEL_DURATION = 12.0

#: The sweep case: a serial grid over fig7 (orchestration overhead —
#: batching, progress events — relative to real per-point work).
SWEEP_GRID = {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}
SWEEP_DURATION = 0.5


def _kernel_case():
    spec = preset("fig7").with_overrides(
        {"duration": KERNEL_DURATION, "kernel": "fast"}
    )
    spec.run()


def _sweep_case():
    base = preset("fig7").with_overrides(
        {"duration": SWEEP_DURATION, "kernel": "fast"}
    )
    SweepRunner(base, SWEEP_GRID).run(parallel=False)


CASES = {
    "kernel": _kernel_case,
    "sweep": _sweep_case,
}


def _with_obs(fn, enabled: bool):
    def run() -> None:
        previous = obs.set_obs_enabled(enabled)
        try:
            fn()
        finally:
            obs.set_obs_enabled(previous)
    return run


def run_case(fn, repeats: int) -> dict:
    """Interleaved best-of-N walls for ``fn`` with obs on and off."""
    return ab_overhead(
        ("enabled", _with_obs(fn, True)),
        ("disabled", _with_obs(fn, False)),
        repeats,
    )


def run_benchmarks(repeats: int = 5) -> dict:
    """Run every overhead case; raises AssertionError past the ceiling."""
    cases = {}
    for name, fn in CASES.items():
        print(f"  timing {name} (obs on vs off) ...", flush=True)
        cases[name] = run_case(fn, repeats)
    for name, case in cases.items():
        if case["overhead"] > OVERHEAD_CEILING:
            raise AssertionError(
                f"obs overhead gate: {name} instrumented run is "
                f"{case['overhead']:+.1%} vs disabled "
                f"(ceiling {OVERHEAD_CEILING:.0%}; "
                f"enabled {case['enabled_s']}s, "
                f"disabled {case['disabled_s']}s)"
            )
    return {
        "schema": 1,
        "python": platform.python_version(),
        "repeats": repeats,
        "overhead_ceiling": OVERHEAD_CEILING,
        "cases": cases,
    }


def format_summary(payload: dict) -> str:
    lines = []
    for name, case in payload["cases"].items():
        lines.append(
            f"  {name}: enabled {case['enabled_s']:.3f}s vs disabled "
            f"{case['disabled_s']:.3f}s ({case['overhead']:+.1%}, "
            f"ceiling {payload['overhead_ceiling']:.0%})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved timing repeats per case (best-of)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the results as JSON to this path")
    args = parser.parse_args(argv)
    print(f"obs overhead benchmarks (best of {args.repeats}):", flush=True)
    payload = run_benchmarks(repeats=args.repeats)
    print(format_summary(payload))
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n",
                               encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
