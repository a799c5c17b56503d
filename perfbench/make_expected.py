#!/usr/bin/env python3
"""Write the committed expected values of the grid workloads.

Runs every point any seed can draw (every candidate value of every grid
position, see ``workloads.py``) through the per-point fast kernel
(``batch_size=None``: no batched pass) and writes their metrics to
``expected/<workload>.json``.  The benchmark checks each pass against
these files, so regenerate them only when a change to the model is
meant to change results::

    python3 perfbench/make_expected.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.spec import SweepRunner  # noqa: E402

import workloads  # noqa: E402


def lattice_points(base, axes):
    runner = SweepRunner(base, workloads.lattice(axes))
    points = {}
    for point in runner.run(batch_size=None):
        if point.error is not None:
            raise SystemExit(f"{point.overrides}: {point.error}")
        points[workloads.point_key(point.name, point.overrides)] = (
            workloads.checked_metrics(point.metrics)
        )
    return points


def main():
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    fig7 = lattice_points(workloads.fig7_base(), workloads.FIG7_AXES)
    crossover = {}
    for strategy in workloads.CROSSOVER_STRATEGIES:
        crossover.update(lattice_points(
            workloads.crossover_base(strategy), workloads.CROSSOVER_AXES
        ))
    base_frequencies = [f[0] for f in workloads.CROSSOVER_AXES["frequency"]]
    notes = {
        "crossover_hz_at_base_values": {
            repr(c[0]): workloads.reference_crossover(
                crossover, c[0], base_frequencies
            )
            for c in workloads.CROSSOVER_AXES["capacitance"]
        },
    }
    for name, points, extra in (("fig7-grid", fig7, {}),
                                ("crossover-grid", crossover, notes)):
        body = {"workload": name, **extra, "points": points}
        path = os.path.join(HERE, "expected", f"{name}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(body, stream, indent=0, sort_keys=True)
            stream.write("\n")
        print(f"{path}: {len(points)} points")


if __name__ == "__main__":
    main()
