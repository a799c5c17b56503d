"""Supervision-overhead harness: supervised (zero faults) vs unsupervised.

The supervision layer (per-attempt deadlines, bounded retries,
quarantine — :class:`repro.spec.runner.SupervisionPolicy`) and the
fault-injection registry (:mod:`repro.faults`) both sit on the hot
payload path.  The design contract is that a run which *enables*
supervision but injects nothing costs almost nothing: the registry is
one attribute check when disarmed, and a supervised batch whose first
attempt succeeds does exactly one attempt.  This harness enforces
that contract::

    PYTHONPATH=src python benchmarks/perf/perf_faults.py
    PYTHONPATH=src python benchmarks/perf/perf_faults.py --repeats 7

Two cases, mirroring the execution modes the chaos machinery guards:

* **serial** — a small serial sweep run under a generous policy
  (deadline + retry budget armed, nothing fires) vs ``policy=None``;
* **pool** — the same grid through the warm worker pool, supervised vs
  not.  Small grids use one payload per future in both variants, so
  the comparison isolates the supervision bookkeeping itself.

Timings interleave the two variants repeat-by-repeat (A/B, A/B, ...)
and compare best-of-N walls, so a slow first iteration or a background
hiccup hits both sides alike.  The faults registry stays disarmed
throughout — this is the zero-fault overhead gate, not a chaos run.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from ab_timing import ab_overhead
from repro import faults
from repro.spec.presets import preset
from repro.spec.runner import SupervisionPolicy, SweepRunner

#: Supervised wall time may exceed unsupervised wall time by at most
#: this fraction (best-of-N vs best-of-N on the same machine).
OVERHEAD_CEILING = 0.03

#: The sweep grid both cases run (matches the perf_obs sweep case).
SWEEP_GRID = {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}
SWEEP_DURATION = 0.5

#: A policy that is armed but can never matter on a healthy run: the
#: deadline is far beyond any point's wall time and the retry budget is
#: only consumed by crashes.
POLICY = SupervisionPolicy(deadline_s=300.0, max_retries=2)


def _runner() -> SweepRunner:
    base = preset("fig7").with_overrides(
        {"duration": SWEEP_DURATION, "kernel": "fast"}
    )
    return SweepRunner(base, SWEEP_GRID)


def _serial_case(policy):
    _runner().run(parallel=False, policy=policy)


def _pool_case(policy):
    _runner().run(parallel=True, policy=policy)


CASES = {
    "serial": _serial_case,
    "pool": _pool_case,
}


def run_case(fn, repeats: int) -> dict:
    """Interleaved best-of-N walls, supervised vs unsupervised."""
    return ab_overhead(
        ("supervised", lambda: fn(POLICY)),
        ("unsupervised", lambda: fn(None)),
        repeats,
    )


def run_benchmarks(repeats: int = 5) -> dict:
    """Run every overhead case; raises AssertionError past the ceiling."""
    if faults.is_armed():
        raise AssertionError(
            "faults registry is armed; the supervision-overhead gate "
            "measures the zero-fault path (unset REPRO_FAULTS)"
        )
    cases = {}
    for name, fn in CASES.items():
        print(f"  timing {name} (supervised vs not) ...", flush=True)
        cases[name] = run_case(fn, repeats)
    for name, case in cases.items():
        if case["overhead"] > OVERHEAD_CEILING:
            raise AssertionError(
                f"supervision overhead gate: {name} supervised run is "
                f"{case['overhead']:+.1%} vs unsupervised "
                f"(ceiling {OVERHEAD_CEILING:.0%}; "
                f"supervised {case['supervised_s']}s, "
                f"unsupervised {case['unsupervised_s']}s)"
            )
    return {
        "schema": 1,
        "python": platform.python_version(),
        "repeats": repeats,
        "overhead_ceiling": OVERHEAD_CEILING,
        "policy": {
            "deadline_s": POLICY.deadline_s,
            "max_retries": POLICY.max_retries,
        },
        "cases": cases,
    }


def format_summary(payload: dict) -> str:
    lines = []
    for name, case in payload["cases"].items():
        lines.append(
            f"  {name}: supervised {case['supervised_s']:.3f}s vs "
            f"unsupervised {case['unsupervised_s']:.3f}s "
            f"({case['overhead']:+.1%}, "
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
    print(f"supervision overhead benchmarks (best of {args.repeats}):",
          flush=True)
    payload = run_benchmarks(repeats=args.repeats)
    print(format_summary(payload))
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2) + "\n",
                               encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
