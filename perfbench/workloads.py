"""The benchmark's three workloads, built from the paper's scenarios.

* ``fig7-grid`` — the Fig. 7 scenario (Hibernus running FFT-512 on the
  ISA interpreter from a rectified supply) over a capacitance x source
  resistance x supply frequency grid.  The interpreter takes most of
  each point's time and every batch member diverges to the solo kernel,
  so this workload moves with interpreter and pool-dispatch changes and
  should not move when only the batched pass changes.
* ``crossover-grid`` — the two Eq. 5 presets over an interruption
  frequency x capacitance grid, finished by ``crossover_from_store``.
  Event-dense points on the synthetic engine: the batched kernel's pass,
  event settlement and probe commit do the work, with no interpreter.
* ``service-mixed`` — a closed loop of client threads against a live
  ``repro serve`` server: sweep jobs whose points are half already in
  the store, alternating with results queries.  HTTP, the job queue,
  dedupe and store reads beside appends dominate.

Grid values come from the seed: each axis position has a base value and
a +2% variant, and the seed picks one per position.  Every variant point
is in a committed lattice of expected metrics (``expected/``, written by
``make_expected.py``), so any seed's points are checked against values
computed once by the per-point path.  The variants are close together,
so every seed's grid costs about the same.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.analysis.crossover import crossover_from_store, series_from_store
from repro.analysis.pareto import pareto_from_store
from repro.results.store import ResultStore
from repro.spec import SweepRunner, preset
from repro.spec.runner import WarmPool

import hostspeed
import layers

HERE = os.path.dirname(os.path.abspath(__file__))

#: A measured stretch of work: its (start, end) on the monotonic clock.
Span = Tuple[float, float]

#: Per axis, the candidate values of each grid position.
Axes = Mapping[str, Tuple[Tuple[float, ...], ...]]


def around(value: float) -> Tuple[float, ...]:
    """A base value and its +2% variant: the candidates a seed picks from.

    Upward only: 22 uF is the smallest capacitance Hibernus' Eq. 4
    thresholds accept.
    """
    return (value, float(f"{value * 1.02:.6g}"))


FIG7_AXES = {
    "capacitance": tuple(around(c) for c in (22e-6, 47e-6, 100e-6, 150e-6)),
    "source_resistance": tuple(around(r) for r in (1000.0, 1750.0, 2500.0)),
    "frequency": tuple(around(f) for f in (4.7, 9.4)),
}
#: 100 Hz stays fixed: near it Hibernus' brownout count (and so the
#: point's cost) jumps by up to a third between close frequencies.
CROSSOVER_AXES = {
    "frequency": tuple(
        around(f) for f in (0.5, 1.07, 2.27, 4.84, 10.3, 22.0, 46.9)
    ) + ((100.0,),),
    "capacitance": tuple(around(c) for c in (22e-6, 47e-6)),
}
CROSSOVER_STRATEGIES = ("hibernus", "quickrecall")

#: Metrics whose values are counts: these must match exactly.
EXACT_METRICS = (
    "completed", "brownouts", "snapshots", "snapshots_aborted", "restores",
    "cycles_executed", "governor_updates",
)
#: Relative tolerance on float metrics (the fast-kernel contract).
REL_TOL = 1e-9

#: The results queries of a service client's read, one request each.
QUERY_KINDS = (
    {"best": "energy_total"},
    {"pareto": "energy_total,availability"},
    {"series": "capacitance,energy_total"},
)
#: Reads of each pass's store on the grid workloads.  A read opens the
#: pass's JSONL store from disk and asks it the same three queries, as a
#: user querying a results file does, timed as one unit.
READS_PER_PASS = 100


def lattice(axes: Axes) -> Dict[str, List[float]]:
    """Every value an axis can take under any seed."""
    return {
        key: [v for candidates in positions for v in candidates]
        for key, positions in axes.items()
    }


def seeded_grid(axes: Axes, rng: random.Random) -> Dict[str, List[float]]:
    """One candidate per grid position, chosen by ``rng``."""
    return {
        key: [rng.choice(candidates) for candidates in positions]
        for key, positions in axes.items()
    }


def point_key(name: str, overrides: Mapping[str, Any]) -> str:
    """The expected-values key of one grid point."""
    return name + "|" + ",".join(
        f"{k}={overrides[k]!r}" for k in sorted(overrides)
    )


def fig7_base():
    return preset("fig7").with_override("kernel", "fast")


def crossover_base(strategy: str):
    return preset(f"crossover-{strategy}").with_override("kernel", "fast")


def grid_sweeps(workload: str, seed: int) -> List[Tuple[Any, Dict[str, List[float]]]]:
    """The (base spec, grid) sweeps of one pass of a grid workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fig7-grid":
        return [(fig7_base(), seeded_grid(FIG7_AXES, rng))]
    grid = seeded_grid(CROSSOVER_AXES, rng)
    return [(crossover_base(s), grid) for s in CROSSOVER_STRATEGIES]


def load_expected(workload: str) -> Dict[str, Dict[str, Any]]:
    path = os.path.join(HERE, "expected", f"{workload}.json")
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)["points"]


def checked_metrics(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """The metrics a check compares: every one the run recorded."""
    return {k: v for k, v in metrics.items() if v is not None and k != "error"}


def metrics_mismatch(got: Mapping[str, Any], want: Mapping[str, Any]) -> Optional[str]:
    """None when ``got`` matches ``want`` (counts exactly, floats to
    :data:`REL_TOL`), else a one-line description of the first difference."""
    if got.get("error") is not None:
        return f"error row: {got['error']}"
    present = checked_metrics(got)
    if set(present) != set(want):
        return f"metric set differs: {sorted(set(present) ^ set(want))}"
    for key, expected in want.items():
        value = present[key]
        if key in EXACT_METRICS or isinstance(expected, bool):
            if value != expected:
                return f"{key}: {value!r} != {expected!r}"
        elif not math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=0.0):
            return f"{key}: {value!r} != {expected!r}"
    return None


def reference_crossover(
    points: Mapping[str, Mapping[str, Any]], capacitance: float,
    frequencies: List[float],
) -> Optional[float]:
    """The Eq. 5 crossover from expected energies, interpolated linearly
    where (hibernus - quickrecall) first changes sign."""
    def energy(strategy: str, f: float) -> float:
        key = point_key(f"crossover-{strategy}",
                        {"capacitance": capacitance, "frequency": f})
        return points[key]["energy_total"]

    fs = sorted(frequencies)
    diffs = [energy("hibernus", f) - energy("quickrecall", f) for f in fs]
    for i in range(1, len(fs)):
        if diffs[i - 1] == 0.0:
            return fs[i - 1]
        if (diffs[i - 1] < 0.0) != (diffs[i] < 0.0):
            frac = abs(diffs[i - 1]) / (abs(diffs[i - 1]) + abs(diffs[i]))
            return fs[i - 1] + frac * (fs[i] - fs[i - 1])
    return None


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def check(self, problem: Optional[str]) -> None:
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(problem)


def peak_rss_mb(pids: List[int]) -> float:
    """Summed peak resident set (VmHWM) of the given processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def pool_pids(pool: Optional[WarmPool]) -> List[int]:
    executor = pool._pool if pool is not None else None
    return list(getattr(executor, "_processes", {}) or {})


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- grid workloads --------------------------------------------------------


class GridWorkload:
    """``fig7-grid`` / ``crossover-grid``: passes over one seeded grid.

    A pass expands the grid (``SweepRunner(...)``), runs every sweep into
    one fresh JSONL store on the warm pool with the given batch size,
    and, for the crossover grid, finds each capacitance's crossover with
    ``crossover_from_store``.  After each pass (untimed), every point and
    crossover is checked against the committed expected values and
    :data:`READS_PER_PASS` reads of the store are timed one by one.
    Passes and reads are recorded as monotonic-clock spans, which
    :func:`run_grid` scales to the nominal host with ``probe``'s samples.
    """

    def __init__(self, name: str, seed: int, batch_size: Optional[int],
                 workdir: str, tally: Tally, probe: hostspeed.Probe):
        self.name = name
        self.probe = probe
        self.sweeps = grid_sweeps(name, seed)
        self.batch_size = batch_size
        self.workdir = workdir
        self.tally = tally
        self.expected = load_expected(name)
        self.points_per_pass = sum(
            math.prod(len(v) for v in grid.values()) for _, grid in self.sweeps
        )
        self.sim_totals = {"brownouts": 0, "snapshots": 0, "restores": 0,
                           "completed": 0}
        self._passes = 0

    def run_pass(self, pool: WarmPool) -> Tuple[Span, ResultStore, Dict[float, Optional[float]]]:
        self._passes += 1
        path = os.path.join(self.workdir, f"{self.name}-{self._passes}.jsonl")
        store = ResultStore(path)
        crossovers: Dict[float, Optional[float]] = {}
        t0 = time.monotonic()
        with obs.span("bench.pass"):
            for base, grid in self.sweeps:
                with obs.span("spec.expand"):
                    runner = SweepRunner(base, grid)
                runner.run(pool=pool, batch_size=self.batch_size, store=store)
            if self.name == "crossover-grid":
                for capacitance in self.sweeps[0][1]["capacitance"]:
                    with obs.span("analysis.crossover"):
                        view = ResultStore()
                        for row in store.select(capacitance=capacitance):
                            view.add(row)
                        crossovers[capacitance] = crossover_from_store(
                            view, "frequency", "energy_total", "name",
                            "crossover-hibernus", "crossover-quickrecall",
                        )
        return (t0, time.monotonic()), store, crossovers

    def check_pass(self, store: ResultStore, crossovers: Mapping[float, Optional[float]]) -> None:
        rows = store.results()
        self.tally.check(
            None if len(rows) == self.points_per_pass
            else f"{len(rows)} rows stored, {self.points_per_pass} expected"
        )
        for row in rows:
            key = point_key(row.name, row.overrides)
            want = self.expected.get(key)
            problem = ("no expected value" if want is None
                       else metrics_mismatch(row.metrics, want))
            self.tally.check(problem and f"{key}: {problem}")
            for metric in self.sim_totals:
                self.sim_totals[metric] += int(row.metrics.get(metric) or 0)
        for capacitance, got in crossovers.items():
            want = reference_crossover(
                self.expected, capacitance, self.sweeps[0][1]["frequency"]
            )
            same = (got is None and want is None) or (
                got is not None and want is not None
                and math.isclose(got, want, rel_tol=REL_TOL)
            )
            self.tally.check(None if same else (
                f"crossover at C={capacitance!r}: {got!r} != {want!r}"
            ))

    def timed_reads(self, store: ResultStore) -> List[Span]:
        """Time :data:`READS_PER_PASS` reads of the pass's store (load
        from disk, then one query of each kind); checks every answer.

        The reads run in this process, and a host-speed sample is taken
        here between every two of them, so each read is scaled by the
        samples on either side of it (:func:`run_grid`).
        """
        rows = [r for r in store.results() if r.error is None]
        lowest = min(r["energy_total"] for r in rows)
        name = rows[0].name
        spans = []
        for _ in range(READS_PER_PASS):
            self.probe.sample()
            t0 = time.monotonic()
            with obs.span("store.query"):
                reader = ResultStore(store.path)
                best = reader.best("energy_total")
                frontier = pareto_from_store(reader, "energy_total", "availability")
                xs, _, _ = series_from_store(
                    reader, "capacitance", "energy_total", name=name
                )
            spans.append((t0, time.monotonic()))
            self.tally.check(None if best["energy_total"] == lowest
                             else "best() missed the lowest energy")
            self.tally.check(None if frontier else "empty pareto frontier")
            self.tally.check(None if xs and xs == sorted(xs)
                             else "series not sorted by x")
        self.probe.sample()
        return spans

    def warm_up(self, pool: WarmPool) -> None:
        """One checked, untimed pass: lazy imports and caches fill."""
        _, store, crossovers = self.run_pass(pool)
        self.check_pass(store, crossovers)
        os.remove(store.path)

    def loop(self, pool: WarmPool, seconds: float,
             folder: Optional["layers.SpanFolder"] = None) -> Dict[str, List[Span]]:
        """Passes until ``seconds`` of host time have been spent in
        passes (at least one)."""
        passes: List[Span] = []
        reads: List[Span] = []
        while not passes or sum(b - a for a, b in passes) < seconds:
            span, store, crossovers = self.run_pass(pool)
            passes.append(span)
            reads.extend(self.timed_reads(store))
            if folder is not None:
                folder.drain()
            self.check_pass(store, crossovers)
            os.remove(store.path)
        return {"passes": passes, "reads": reads}


def scaled_walls(samples: hostspeed.Samples, spans: List[Span],
                 pid: Optional[int] = None,
                 pad: float = hostspeed.PAD_S) -> List[float]:
    """Each span's length in nominal-host seconds."""
    return [samples.scaled(a, b, pid, pad) for a, b in spans]


def report_host_time(report: Callable[[str], None], spans: List[Span],
                     scaled: List[float], unit: str) -> None:
    """Print the unscaled host time beside the scaled one."""
    host = sum(b - a for a, b in spans)
    report(f"{len(spans)} {unit}: {host:.3f} host s, {sum(scaled):.3f} "
           f"nominal s (host speed {sum(scaled) / host:.3f} of nominal)")


def run_grid(name: str, seed: int, seconds: float, trace: bool, workers: int,
             batch_size: Optional[int], workdir: str, tally: Tally,
             probe: hostspeed.Probe,
             report: Callable[[str], None]) -> Dict[str, float]:
    """Measure one grid workload; end-to-end or (``trace``) per-layer metrics."""
    work = GridWorkload(name, seed, batch_size, workdir, tally, probe)
    report(f"{name}: {work.points_per_pass} points per pass, seed {seed}, "
           f"{workers} workers, batch_size={batch_size}")
    budget = seconds / 2 if trace else seconds
    pool = WarmPool(max_workers=workers)
    try:
        work.warm_up(pool)
        plain = work.loop(pool, budget)
        rss = peak_rss_mb([os.getpid()] + pool_pids(pool))
    finally:
        pool.close()
    samples = hostspeed.Samples(probe.directory)
    walls = scaled_walls(samples, plain["passes"])
    if not trace:
        # Each read by the samples just before and after it.
        queries = scaled_walls(samples, plain["reads"], os.getpid(), pad=0.0)
        report_host_time(report, plain["passes"], walls, "passes")
        report("pass walls, nominal s: "
               + " ".join(f"{w:.3f}" for w in walls))
        report_host_time(report, plain["reads"], queries, "reads")
        return {
            "points_per_s": work.points_per_pass * len(walls) / sum(walls),
            "jobs_per_s": len(walls) / sum(walls),
            "job_p50_ms": 1e3 * quantile(walls, 50),
            "job_p95_ms": 1e3 * quantile(walls, 95),
            "query_p50_ms": 1e3 * quantile(queries, 50),
            "query_p95_ms": 1e3 * quantile(queries, 95),
            "peak_rss_mb": rss,
        }
    # Traced phase: wrappers in place before the pool forks, fresh pool.
    layers.install_wrappers()
    obs.enable_tracing(limit=1_000_000)
    pool = WarmPool(max_workers=workers)
    try:
        work.warm_up(pool)
        obs.drain()
        folder = layers.SpanFolder()
        work.sim_totals = dict.fromkeys(work.sim_totals, 0)
        before = layers.registry_state()
        traced = work.loop(pool, budget, folder)
        delta = layers.RegistryDelta(before, layers.registry_state())
    finally:
        pool.close()
        obs.disable_tracing()
    passes = len(traced["passes"])
    traced_walls = scaled_walls(hostspeed.Samples(probe.directory),
                                traced["passes"])
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    report_host_time(report, plain["passes"], walls, "untraced passes")
    report_host_time(report, traced["passes"], traced_walls, "traced passes")
    report(layers.format_layer_table(
        layers.layer_table(folder.rows), passes, "pass"
    ))
    return layers.per_layer_metrics(
        delta, folder.rows, passes, workers,
        work.points_per_pass * passes, work.sim_totals, overhead,
    )
