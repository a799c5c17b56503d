#!/usr/bin/env python3
"""The repository benchmark: the paper's workloads, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7-grid --seed 1 --seconds 20 --trace 0

Workloads: ``fig7-grid``, ``crossover-grid``, ``service-mixed`` (see
``workloads.py`` and ``service_workload.py`` for what each runs and
why).  Every workload runs with the user-facing defaults: a warm pool
of one worker per CPU and auto batch size (``--batch-size 1`` runs each
point as its own task instead, for comparisons).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once traced and
reports the per-layer metrics (see ``layers.py``) plus a by-layer self
time table.  End-to-end timings are scaled to a nominal host speed with
a reference probe sampled on the same CPUs while the work runs (see
``hostspeed.py``); the printed report gives the host time beside them.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.

Everything the run writes stays under ``.bench_build/`` in the
repository root: the compiled C kernel cache (built on first use) and a
per-run work directory removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fig7-grid", "crossover-grid", "service-mixed")

#: End-to-end metrics with their units (all measured in host time).
END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch-size", type=int, default=0,
                        help="0 = auto (the default), 1 = per-point")
    return parser.parse_args(argv)


def setup_spans(kind: str, workers: int, workdir: str, probe_dir: str) -> list:
    """Monotonic-clock span from process start to ready, per
    fresh-process set-up (each sampling the host's speed into
    ``probe_dir`` as it goes)."""
    script = os.path.join(HERE, "setup_probe.py")
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, script, kind, str(workers), workdir, probe_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            t1 = time.monotonic()
        finally:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        spans.append((t0, t1))
    return spans


def main(argv=None) -> int:
    args = parse_args(argv)
    workers = os.cpu_count() or 1
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    os.environ["REPRO_CKERNEL_DIR"] = os.path.join(build, "ckernel")
    # The compiler's and Python's temporary files stay in the checkout too.
    os.environ["TMPDIR"] = os.path.join(build, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from repro.sim import _ckernel
    import hostspeed
    import workloads
    import service_workload

    if _ckernel.load() is None:  # builds on first use, cached after
        print("warning: C kernel unavailable; the numpy pass runs instead",
              file=sys.stderr)
    workdir = os.path.join(build, f"work-{os.getpid()}")
    os.makedirs(workdir)
    probe = hostspeed.Probe(os.path.join(workdir, "probe"))
    lines = []
    tally = workloads.Tally()
    try:
        metrics = {}
        if not args.trace:
            kind = "service" if args.workload == "service-mixed" else "grid"
            spans = setup_spans(kind, workers, workdir, probe.directory)
            samples = hostspeed.Samples(probe.directory)
            metrics["setup_s"] = statistics.median(
                samples.scaled(a, b) for a, b in spans
            )
            host = statistics.median(b - a for a, b in spans)
            lines.append(f"set-up: {len(spans)} fresh processes, median "
                         f"{metrics['setup_s']:.3f} nominal s "
                         f"({host:.3f} host s)")
        # Sampled from here on in this process and the pools it forks.
        probe.start()
        if args.workload == "service-mixed":
            metrics.update(service_workload.run_service(
                args.seed, args.seconds, bool(args.trace), workers,
                args.batch_size, workdir, tally, probe, lines.append,
            ))
        else:
            metrics.update(workloads.run_grid(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workers, args.batch_size, workdir, tally, probe, lines.append,
            ))
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    correct = tally.failed == 0
    for line in lines:
        print(line)
    for name in units:
        print(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {tally.failed / max(1, tally.attempted):>14.6g}"
          f" ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
