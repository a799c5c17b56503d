"""Per-layer measurement for the benchmark's traced runs.

Everything here reads what :mod:`repro.obs` already records (counters,
histograms and spans, including those that pool workers ship back to
the parent) plus spans that the benchmark opens itself around calls
into a layer's public functions.  The program under test gets no new
instrumentation: the two call sites the benchmark times from outside,
``MachineEngine.run_cycles`` (the ISA interpreter) and
``SimulationService.results_query`` (store reads behind the results
endpoint), are wrapped by :func:`install_wrappers` before the pool
forks, so forked workers inherit the wrappers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro import obs

#: Span name prefixes that differ from their layer's name in the
#: by-layer table; every other prefix is its own layer.
SPAN_LAYERS = {"sweep": "runner", "job": "serve"}

#: Layers whose self time is reported as a ``self.<layer>_s`` metric.
SELF_LAYERS = (
    "bench", "spec", "runner", "pool", "batch", "kernel", "mcu", "store",
    "analysis", "serve", "http",
)

#: HTTP endpoints (as ``repro_http_request_seconds`` labels them) whose
#: mean server-side request time is reported, with the metric suffix.
HTTP_ENDPOINTS = {
    ("POST", "/v1/sweeps"): "post_sweeps",
    ("GET", "/v1/jobs/{id}/events"): "job_events",
    ("GET", "/v1/results"): "results",
}

#: Every per-layer metric name with its unit, in report order.  Seconds
#: and counts are per unit of work: one pass over the seeded grid on
#: the grid workloads, one completed write job on ``service-mixed``.
PER_LAYER_UNITS: Dict[str, str] = {
    "spec.expand_s": "s",
    "spec.points": "count",
    "runner.sweep_s": "s",
    "runner.tasks": "count",
    "pool.busy_s": "s",
    "pool.wait_s": "s",
    "pool.busy_frac": "ratio",
    "kernel.run_s": "s",
    "kernel.steps": "count",
    "kernel.chunks": "count",
    "kernel.chunked_frac": "ratio",
    "batch.run_s": "s",
    "batch.members": "count",
    "batch.passes": "count",
    "batch.advanced": "count",
    "batch.settled": "count",
    "batch.diverged": "count",
    "batch.vector_frac": "ratio",
    "batch.diverged_frac": "ratio",
    "batch.ckernel_passes": "count",
    "mcu.run_cycles_s": "s",
    "mcu.cycles": "count",
    "mcu.cycles_per_s": "1/s",
    "sim.brownouts": "count",
    "sim.snapshots": "count",
    "sim.restores": "count",
    "sim.completed": "count",
    "store.append_s": "s",
    "store.rows_appended": "count",
    "store.load_s": "s",
    "store.query_s": "s",
    "analysis.crossover_s": "s",
    **{f"http.request_s.{suffix}": "s" for suffix in HTTP_ENDPOINTS.values()},
    "queue.wait_s": "s",
    "job.run_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
}


def install_wrappers() -> None:
    """Time the interpreter and service store reads with spans.

    Call before the pool whose workers should inherit the wrappers
    forks.  Spans are recorded only while tracing is enabled, and
    workers ship them to the parent with each chunk's results.
    """
    from repro.mcu.engine import MachineEngine
    from repro.serve.service import SimulationService

    run_cycles = MachineEngine.run_cycles

    def timed_run_cycles(self, budget, stop_at_ckpt=False):
        with obs.span("mcu.run_cycles") as span:
            result = run_cycles(self, budget, stop_at_ckpt)
            span.annotate(cycles=result.cycles)
        return result

    results_query = SimulationService.results_query

    def timed_results_query(self, params):
        with obs.span("store.query"):
            return results_query(self, params)

    MachineEngine.run_cycles = timed_run_cycles
    SimulationService.results_query = timed_results_query


# -- obs registry deltas ---------------------------------------------------


def _key(entry: Mapping[str, Any]) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    return entry["name"], tuple(sorted(entry["labels"].items()))


def registry_state() -> Dict[str, Any]:
    """Counter values and histogram (count, sum) pairs, keyed by name+labels."""
    snap = obs.registry.snapshot()
    return {
        "counters": {_key(c): c["value"] for c in snap["counters"]},
        "histograms": {
            _key(h): (h["count"], h["sum"]) for h in snap["histograms"]
        },
    }


class RegistryDelta:
    """What the registry gained between two :func:`registry_state` reads."""

    def __init__(self, before: Dict[str, Any], after: Dict[str, Any]):
        self.counters = {
            key: value - before["counters"].get(key, 0.0)
            for key, value in after["counters"].items()
        }
        self.histograms = {}
        for key, (count, total) in after["histograms"].items():
            count0, total0 = before["histograms"].get(key, (0, 0.0))
            self.histograms[key] = (count - count0, total - total0)

    def counter(self, name: str, **labels: Any) -> float:
        """Sum over label sets matching ``labels`` (all when empty)."""
        return sum(
            value for (n, items), value in self.counters.items()
            if n == name and _matches(items, labels)
        )

    def hist(self, name: str, **labels: Any) -> Tuple[int, float]:
        """(count, sum) over label sets matching ``labels``."""
        count = total = 0.0
        for (n, items), (c, s) in self.histograms.items():
            if n == name and _matches(items, labels):
                count += c
                total += s
        return int(count), total


def _matches(items: Tuple[Tuple[str, str], ...], labels: Mapping[str, Any]) -> bool:
    have = dict(items)
    return all(have.get(k) == str(v) for k, v in labels.items())


# -- spans -----------------------------------------------------------------


class SpanFolder:
    """Streams span events into per-name totals, with self time.

    Self time is a span's duration minus the part of it that child spans
    on the same thread cover.  A span is recorded when it exits, so its
    children (which exit first) have always arrived before it: they are
    the not-yet-claimed spans of its thread that started no earlier than
    it did.  Only unclaimed intervals are kept, so the buffer can be
    drained and folded while a run is still going.
    """

    def __init__(self) -> None:
        self._pending: Dict[Tuple[int, int], List[Tuple[float, float]]] = (
            defaultdict(list)
        )
        #: Per span name: count, total_s, self_s, and summed ``cycles``
        #: and ``specs`` args.
        self.rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0,
                     "cycles": 0, "specs": 0}
        )

    def feed(self, events: Iterable[Dict[str, Any]]) -> None:
        for event in events:
            if event.get("ph") != "X":
                continue
            start = event["ts"]
            end = start + event["dur"]
            pending = self._pending[(event["pid"], event["tid"])]
            covered = 0.0
            while pending and pending[-1][0] >= start:
                child_start, child_end = pending.pop()
                covered += min(child_end, end) - child_start
            pending.append((start, end))
            row = self.rows[event["name"]]
            row["count"] += 1
            row["total_s"] += event["dur"] / 1e6
            row["self_s"] += max(0.0, event["dur"] - covered) / 1e6
            args = event.get("args") or {}
            row["cycles"] += args.get("cycles", 0)
            row["specs"] += args.get("specs", 0)

    def drain(self) -> None:
        """Fold everything the obs buffer holds now."""
        self.feed(obs.drain())


def layer_table(summary: Mapping[str, Mapping[str, float]]) -> Dict[str, Dict[str, float]]:
    """Fold :attr:`SpanFolder.rows` into layers: spans, total and self seconds."""
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for name, row in summary.items():
        prefix = name.split(".", 1)[0]
        layer = SPAN_LAYERS.get(prefix, prefix)
        layers[layer]["spans"] += row["count"]
        layers[layer]["total_s"] += row["total_s"]
        layers[layer]["self_s"] += row["self_s"]
    return dict(layers)


def format_layer_table(layers: Mapping[str, Mapping[str, float]], units: int, unit_name: str) -> str:
    """The printed by-layer table, per unit of work."""
    lines = [
        f"by-layer self time per {unit_name} ({unit_name} count: {units}; "
        "self = span minus child spans on the same thread)",
        f"  {'layer':<10} {'spans':>9} {'total_s':>10} {'self_s':>10}",
    ]
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {layer:<10} {row['spans'] / units:>9.1f} "
            f"{row['total_s'] / units:>10.4f} {row['self_s'] / units:>10.4f}"
        )
    return "\n".join(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    delta: RegistryDelta,
    summary: Mapping[str, Mapping[str, float]],
    units: int,
    workers: int,
    points: int,
    sim_totals: Mapping[str, float],
    overhead_frac: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric, per unit of work.

    ``summary`` is the :attr:`SpanFolder.rows` of the traced phase, which
    ran ``units`` units of work (passes or jobs) on a pool of
    ``workers`` over ``points`` grid points in total.
    """

    def span_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def per(value: float) -> float:
        return value / units

    kernel_steps = delta.counter("repro_kernel_steps_total")
    advanced = delta.counter("repro_batch_advanced_total")
    settled = delta.counter("repro_batch_settled_total")
    diverged = delta.counter("repro_batch_diverged_total")
    batch_points = summary.get("batch.run", {}).get("specs", 0)
    sweep_s = span_s("sweep.run")
    # A single-payload batch runs in-process ("pool.serial"): one worker's
    # worth of busy time that the pool histograms never see.
    busy_s = delta.hist("repro_pool_worker_busy_seconds")[1] + span_s("pool.serial")
    mcu_s = span_s("mcu.run_cycles")
    mcu_cycles = summary.get("mcu.run_cycles", {}).get("cycles", 0)
    computed = delta.counter("repro_points_computed_total")
    cached = delta.counter("repro_points_cached_total")
    layers = layer_table(summary)
    metrics = {
        "spec.expand_s": per(span_s("spec.expand")),
        "spec.points": per(points),
        "runner.sweep_s": per(sweep_s),
        "runner.tasks": per(delta.counter("repro_pool_tasks_total")),
        "pool.busy_s": per(busy_s),
        "pool.wait_s": per(delta.hist("repro_pool_chunk_wait_seconds")[1]),
        "pool.busy_frac": _ratio(busy_s, workers * sweep_s),
        "kernel.run_s": per(delta.hist("repro_kernel_run_seconds")[1]),
        "kernel.steps": per(kernel_steps),
        "kernel.chunks": per(delta.counter("repro_kernel_chunks_total")),
        "kernel.chunked_frac": _ratio(
            delta.counter("repro_kernel_chunked_steps_total"), kernel_steps
        ),
        "batch.run_s": per(delta.hist("repro_batch_run_seconds")[1]),
        "batch.members": per(delta.counter("repro_batch_members_total")),
        "batch.passes": per(delta.counter("repro_batch_passes_total")),
        "batch.advanced": per(advanced),
        "batch.settled": per(settled),
        "batch.diverged": per(diverged),
        "batch.vector_frac": _ratio(advanced, advanced + settled),
        "batch.diverged_frac": _ratio(diverged, batch_points),
        "batch.ckernel_passes": per(
            delta.counter("repro_batch_pass_path_total", path="c")
        ),
        "mcu.run_cycles_s": per(mcu_s),
        "mcu.cycles": per(mcu_cycles),
        "mcu.cycles_per_s": _ratio(mcu_cycles, mcu_s),
        "sim.brownouts": per(sim_totals["brownouts"]),
        "sim.snapshots": per(sim_totals["snapshots"]),
        "sim.restores": per(sim_totals["restores"]),
        "sim.completed": per(sim_totals["completed"]),
        "store.append_s": per(delta.hist("repro_store_append_seconds")[1]),
        "store.rows_appended": per(
            delta.counter("repro_store_rows_appended_total", backend="jsonl")
        ),
        "store.load_s": per(delta.hist("repro_store_load_seconds")[1]),
        "store.query_s": per(span_s("store.query")),
        "analysis.crossover_s": per(span_s("analysis.crossover")),
        "queue.wait_s": _mean(delta.hist("repro_jobs_queue_wait_seconds")),
        "job.run_s": _mean(delta.hist("repro_jobs_run_seconds")),
        "serve.cache_hit_ratio": _ratio(cached, computed + cached),
        "trace.overhead_frac": overhead_frac,
    }
    for (method, endpoint), suffix in HTTP_ENDPOINTS.items():
        metrics[f"http.request_s.{suffix}"] = _mean(delta.hist(
            "repro_http_request_seconds", method=method, endpoint=endpoint
        ))
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = per(layers.get(layer, {}).get("self_s", 0.0))
    if set(metrics) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metric set out of sync with PER_LAYER_UNITS")
    return metrics


def _mean(count_sum: Tuple[int, float]) -> float:
    count, total = count_sum
    return total / count if count else 0.0

