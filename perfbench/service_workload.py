"""``service-mixed``: closed-loop clients against a live ``repro serve``.

One client thread per worker, all in this process, each alternating:

* a write — a sweep job over four FFT-64 fig7 points (short horizon),
  two of which an earlier job of the same client already put in the
  store, so half of every job is a cache hit;
* a read — three ``GET /v1/results`` queries: best, pareto and series.

A job's latency runs from just before its submission until its event
stream (``GET /v1/jobs/{id}/events``, which follows the job and ends
when it is terminal) closes, so it is not rounded to a poll interval.
After the loop every job must be ``done`` and its rows must equal an
in-process run (``parallel=False``) of the same points.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.serve import ServiceClient, ServiceError, create_server
from repro.spec import SweepRunner, preset

import hostspeed
import layers
from workloads import (
    QUERY_KINDS,
    Span,
    Tally,
    checked_metrics,
    metrics_mismatch,
    peak_rss_mb,
    pool_pids,
    quantile,
    report_host_time,
    scaled_walls,
)

POINTS_PER_JOB = 4
CACHED_PER_JOB = 2
#: New capacitances are drawn uniformly from this range (farads); every
#: point in it boots and finishes FFT-64 within the horizon.
CAPACITANCE_RANGE = (22e-6, 36e-6)


#: The fixed part of every write job's scenario; only the capacitances
#: come from the seed, so every seed's jobs cost about the same.
BASE_OVERRIDES = {
    "kernel": "fast",
    "n": 64,
    "duration": 0.3,
    "source_resistance": 1000.0,
    "frequency": 4.7,
}


class Client:
    """One closed-loop client: its requests, latencies and history."""

    def __init__(self, url: str, rng: random.Random, batch_size: int,
                 tally: Tally):
        self.http = ServiceClient(url)
        self.rng = rng
        self.batch_size = batch_size
        self.tally = tally
        #: Capacitances whose points this client's finished jobs stored.
        self.history: List[float] = []
        self.jobs: List[str] = []
        #: Monotonic-clock spans of the timed requests.
        self.job_spans: List[Span] = []
        self.query_spans: List[Span] = []
        self.error: Optional[BaseException] = None

    def _new_capacitances(self, count: int) -> List[float]:
        seen = set(self.history)
        fresh: List[float] = []
        while len(fresh) < count:
            value = self.rng.uniform(*CAPACITANCE_RANGE)
            if value not in seen:
                seen.add(value)
                fresh.append(value)
        return fresh

    def write(self) -> None:
        cached = self.rng.sample(self.history, CACHED_PER_JOB) if self.history else []
        fresh = self._new_capacitances(POINTS_PER_JOB - len(cached))
        capacitances = cached + fresh
        self.rng.shuffle(capacitances)
        request = {
            "preset": "fig7",
            "overrides": BASE_OVERRIDES,
            "grid": {"capacitance": capacitances},
            "batch_size": self.batch_size,
        }
        t0 = time.monotonic()
        with obs.span("http.write"):
            job_id = self.http.submit_sweep(request)["job_id"]
            for _line in self.http.events(job_id):
                pass
        self.job_spans.append((t0, time.monotonic()))
        self.jobs.append(job_id)
        self.history.extend(fresh)

    def read(self) -> None:
        """One results query of each kind, each timed on its own."""
        for params in QUERY_KINDS:
            t0 = time.monotonic()
            problem = None
            try:
                with obs.span("http.read"):
                    body = self.http.results(**params)
            except ServiceError as error:
                problem = f"results query {params}: {error}"
            else:
                if "best" in params and body.get("best", {}).get("value") is None:
                    problem = "best query returned no value"
                elif "pareto" in params and not body.get("pareto"):
                    problem = "pareto query returned an empty frontier"
                elif "series" in params and body["series"]["xs"] != sorted(
                    body["series"]["xs"]
                ):
                    problem = "series query not sorted by x"
            self.query_spans.append((t0, time.monotonic()))
            self.tally.check(problem)

    def run_until(self, deadline: float) -> None:
        try:
            while time.monotonic() < deadline:
                self.write()
                if time.monotonic() >= deadline:
                    break
                self.read()
        except Exception as error:  # reported and counted by the caller
            self.error = error


def run_phase(seed: int, phase: str, seconds: float, workers: int,
              batch_size: int, workdir: str, tally: Tally,
              folder: Optional[layers.SpanFolder]) -> Dict[str, Any]:
    """One server lifetime: warm-up, the timed closed loop, then checks."""
    store_path = os.path.join(workdir, f"serve-{phase}.jsonl")
    server = create_server(port=0, store_path=store_path, max_workers=workers)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    service = server.service
    try:
        clients = [
            Client(url, random.Random(f"{seed}:{phase}:{i}"), batch_size,
                   tally)
            for i in range(workers)
        ]
        for client in clients:  # seeds each history; spawns the pool
            client.write()
        warm_jobs = sum(len(c.jobs) for c in clients)
        for client in clients:
            client.job_spans.clear()
        if folder is not None:
            obs.drain()
        before = layers.registry_state()
        t0 = time.monotonic()
        deadline = t0 + seconds
        threads = [
            threading.Thread(target=c.run_until, args=(deadline,))
            for c in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(0.25)
                if folder is not None:
                    folder.drain()
        loop = (t0, time.monotonic())
        delta = layers.RegistryDelta(before, layers.registry_state())
        if folder is not None:
            folder.drain()
            obs.disable_tracing()  # the checks below are not measured
        rss = peak_rss_mb([os.getpid()] + pool_pids(service.pool))
    finally:
        server.shutdown()
        thread.join(10)
        service.close()
        server.server_close()
    for client in clients:
        if client.error is not None:
            tally.check(f"client stopped: {type(client.error).__name__}: "
                        f"{client.error}")
    sim_totals = check_jobs(service, clients, tally)
    timed_jobs = sum(len(c.jobs) for c in clients) - warm_jobs
    return {
        "loop": loop,
        "jobs": timed_jobs,
        "job_spans": [x for c in clients for x in c.job_spans],
        "query_spans": [x for c in clients for x in c.query_spans],
        "rss": rss,
        "delta": delta,
        "sim_totals": sim_totals,
    }


def check_jobs(service, clients: List[Client], tally: Tally) -> Dict[str, float]:
    """Every job done, its rows equal to an in-process run of its points.

    Returns the simulated-statistic totals over the timed jobs' rows.
    """
    capacitances = sorted({c for client in clients for c in client.history})
    reference = SweepRunner(
        preset("fig7").with_overrides(BASE_OVERRIDES),
        {"capacitance": capacitances},
    )
    expected = {
        point.spec_hash: checked_metrics(point.metrics)
        for point in reference.run(parallel=False)
    }
    totals = {"brownouts": 0, "snapshots": 0, "restores": 0, "completed": 0}
    for client in clients:
        for index, job_id in enumerate(client.jobs):
            record = service.queue.get(job_id)
            problem = None
            if record is None or record.status != "done":
                status = record.status if record is not None else "missing"
                problem = f"job {job_id} ended {status}"
            else:
                for spec_hash in record.result["spec_hashes"]:
                    row = service.store.get(spec_hash)
                    want = expected.get(spec_hash)
                    if row is None or want is None:
                        problem = f"job {job_id}: row {spec_hash} missing"
                        break
                    mismatch = metrics_mismatch(row.metrics, want)
                    if mismatch is not None:
                        problem = f"job {job_id}: {mismatch}"
                        break
                    if index > 0:  # the warm-up job is not timed
                        for metric in totals:
                            totals[metric] += int(row.metrics.get(metric) or 0)
            tally.check(problem)
    return totals


def run_service(seed: int, seconds: float, trace: bool, workers: int,
                batch_size: int, workdir: str, tally: Tally,
                probe: hostspeed.Probe,
                report: Callable[[str], None]) -> Dict[str, float]:
    """Measure ``service-mixed``; end-to-end or (``trace``) per-layer metrics."""
    report(f"service-mixed: {workers} closed-loop clients, seed {seed}, "
           f"{POINTS_PER_JOB} points per job ({CACHED_PER_JOB} cached), "
           f"batch_size={batch_size}, latency from the job's event stream")
    budget = seconds / 2 if trace else seconds
    plain = run_phase(seed, "plain", budget, workers, batch_size, workdir,
                      tally, None)
    samples = hostspeed.Samples(probe.directory)
    wall = samples.scaled(*plain["loop"])
    if not trace:
        jobs = scaled_walls(samples, plain["job_spans"])
        queries = scaled_walls(samples, plain["query_spans"], os.getpid())
        report_host_time(report, [plain["loop"]], [wall], "closed loop")
        report(f"{plain['jobs']} jobs, {len(queries)} queries")
        return {
            "points_per_s": POINTS_PER_JOB * plain["jobs"] / wall,
            "jobs_per_s": plain["jobs"] / wall,
            "job_p50_ms": 1e3 * quantile(jobs, 50),
            "job_p95_ms": 1e3 * quantile(jobs, 95),
            "query_p50_ms": 1e3 * quantile(queries, 50),
            "query_p95_ms": 1e3 * quantile(queries, 95),
            "peak_rss_mb": plain["rss"],
        }
    layers.install_wrappers()
    # Tracing is on before the service starts, so the service leaves the
    # buffer to us instead of installing its own bounded window.
    obs.enable_tracing(limit=1_000_000)
    folder = layers.SpanFolder()
    try:
        traced = run_phase(seed, "traced", budget, workers, batch_size,
                           workdir, tally, folder)
    finally:
        obs.disable_tracing()
    traced_wall = hostspeed.Samples(probe.directory).scaled(*traced["loop"])
    overhead = (plain["jobs"] / wall) / (traced["jobs"] / traced_wall) - 1.0
    report_host_time(report, [plain["loop"]], [wall], "untraced loop")
    report_host_time(report, [traced["loop"]], [traced_wall], "traced loop")
    units = max(1, traced["jobs"])
    report(layers.format_layer_table(
        layers.layer_table(folder.rows), units, "job"
    ))
    return layers.per_layer_metrics(
        traced["delta"], folder.rows, units, workers,
        POINTS_PER_JOB * units, traced["sim_totals"], overhead,
    )

