"""Batched structure-of-arrays execution of scenario batches.

The fast kernel (:mod:`repro.sim.kernel`) chunks *one* scenario at a
time; a sweep over M grid points still pays the per-step Python cost M
times.  This module advances M scenarios that share a topology *together*
as structure-of-arrays state: one numpy lane per member holding the rail
voltage ``vcc[M]``, the cumulative energy ledger, and per-lane event
horizons, with closed-form source plans evaluated once over the full run
horizon and shared across every member with an identical harvester
configuration.

Execution model (see DESIGN.md, "Batched SoA kernel"):

* A member becomes a **lane** only when its built rail has the simple
  shape :meth:`SupplyRail.step_chunk` sends to ``_chunk_loop_simple``:
  one rectified voltage source, one load, and an ideal capacitor (no
  leak, draw overhead 1.0).  A lane holds its own built system,
  simulator, rail and platform, plus the per-lane scalars the array
  pass needs (capacitor physics, the precomputed source plan, the last
  startable step).  Every other member — a bleed resistor beside the
  platform, a leaky store, a power-domain harvester — runs the solo
  fast path on the system already built and counts as ``diverged``.
* A **round** gathers every runnable lane's current regime — exactly the
  same :meth:`~repro.power.rail.RailLoad.load_profile` protocol the
  per-scenario fast kernel uses — and advances every lane whose regime
  is a constant per-step energy through one masked **array pass**.
  Per-step arithmetic inside a pass replicates
  :meth:`SupplyRail._chunk_loop_simple` operation for operation, so the
  committed voltage sequence is bit-identical to a per-scenario fast run
  (chunk partitioning cannot change a pure per-step recurrence).
* Per-lane event boundaries (boot/wake/brownout/active-guard voltage
  crossings, snapshot/restore countdowns via ``max_steps``) freeze the
  lane inside the pass at exactly the step the scalar loop would have
  broken on; the boundary step then settles scalar-side through the
  unmodified reference path and the lane re-enters the next round.
* A lane whose regime has a current or resistive term, or whose pass
  group is too small to pay for array dispatch, advances through the
  ordinary scalar :meth:`~repro.power.rail.SupplyRail.step_chunk`.

Exactness contract: the vcc trace and every event step index are
bit-identical to per-scenario fast runs.  Scalar metric accumulators
that the fast kernel itself folds per-chunk (state-residency times,
per-chunk committed energies) agree to floating-point re-association
tolerance (~1e-12 relative), exactly as fast-vs-reference already does.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import degrade, obs
from repro.power.rail import RectifiedInjector, SupplyRail
from repro.results.run_result import (
    MAX_TRACE_SAMPLES,
    RunResult,
    failed_point,
    run_point,
)
from repro.sim import _ckernel
from repro.sim.engine import _MAX_BACKOFF
from repro.spec.specs import ScenarioSpec

#: Hard cap on steps per array pass (bounds the per-pass vcc matrix and
#: amortises the per-pass Python overheads; any pass partition commits
#: bit-identical results, so the cap is purely a scheduling knob).
_PASS_CAP = 65536
#: Per-pass vcc matrix byte budget: for wide batches the effective pass
#: length shrinks below ``_PASS_CAP`` so the trace matrix stays bounded.
#: Longer passes mean fewer commit/regather cycles per lane — the
#: dominant fixed cost once the step loop itself is vectorized.
_PASS_BUDGET_BYTES = 256 * 1024 * 1024
#: Minimum steps before the break-at-quarter early exit may trigger.
_EARLY_EXIT_MIN_STEPS = 64
#: Below this many runnable lanes a round stops vectorizing and the
#: remaining lanes finish through the per-scenario chunked path.
_MIN_VECTOR_LANES = 2
#: Minimum lanes in a pass group before the vectorized pass beats the
#: scalar chunk loop (per-row numpy dispatch is ~30x a scalar step, so
#: small groups advance through ``step_chunk`` instead).  Tests lower
#: this to force array passes on tiny batches.
_MIN_VECTOR_GROUP = 32
#: Auto batch size cap (memory: one full-horizon plan per distinct
#: harvester configuration plus O(pass_cap * M) scratch — ~17 MB of
#: per-pass vcc matrix at the cap, amortised over 512 grid points).
AUTO_BATCH_SIZE = 512


def _uniform_scalar(arr: np.ndarray) -> Any:
    """``arr`` as a Python float when every lane shares one value.

    A scalar ufunc operand computes the exact same IEEE result as the
    equal-valued array while skipping one array read per step — grid
    axes usually leave most per-lane parameter arrays constant.
    """
    first = arr[0]
    if bool((arr == first).all()):
        return float(first)
    return arr


def _pass_cap(m_count: int) -> int:
    """Steps per pass for an ``m_count``-lane group.

    ``_PASS_CAP`` bounded by the ``_PASS_BUDGET_BYTES`` trace-matrix
    budget (8 bytes per lane-step).  Any pass partition commits
    bit-identical results, so this is purely a scheduling knob.
    """
    by_budget = _PASS_BUDGET_BYTES // (max(1, m_count) * 8)
    return max(1, min(_PASS_CAP, by_budget))


@dataclass
class BatchStats:
    """Per-batch execution diagnostics, reported through progress events.

    Attributes:
        members: lanes that entered batched execution.
        passes: array passes executed.
        advanced: member-steps advanced through array passes.
        settled: member-steps settled through the scalar reference path.
        diverged: members that ran on the per-scenario fast kernel
            instead: members without the simple rail shape, and lanes
            left over when the batch drained.
    """

    members: int = 0
    passes: int = 0
    advanced: int = 0
    settled: int = 0
    diverged: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "members": self.members,
            "passes": self.passes,
            "advanced": self.advanced,
            "settled": self.settled,
            "diverged": self.diverged,
        }


#: Optional per-round progress hook: called with the running BatchStats
#: after every round of array passes.
RoundHook = Callable[[BatchStats], None]


def topology_key(spec: ScenarioSpec) -> str:
    """The batching-compatibility key of a spec: its non-numeric skeleton.

    Two grid points may share a batch only when they differ in *numeric*
    parameters alone.  Every string-valued axis — the kernel, the
    strategy kind, the harvester/storage/load/rectifier/converter
    families, the engine and program — stays in the key, so a grid that
    sweeps any axis changing chunk eligibility partitions into separate
    sub-batches instead of batching incompatible members together.
    """

    def strip(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {key: strip(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strip(item) for item in value]
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return None
        return value

    skeleton = strip(spec.to_dict())
    # to_dict omits default-valued fields; pin the ones that gate
    # batching so presence/absence differences cannot alias.
    skeleton["kernel"] = spec.kernel
    skeleton["stop_on_completion"] = spec.stop_on_completion
    return json.dumps(skeleton, sort_keys=True)


def batchable(spec: ScenarioSpec) -> bool:
    """Whether a spec may join an array batch at all (fast kernel only)."""
    return spec.kernel == "fast"


class _PlanCache:
    """Full-horizon source-plan arrays shared across batch members.

    Keyed by the harvester's resolved configuration and the time grid, so
    a capacitance sweep — every member carrying the same harvester —
    plans each waveform exactly once per batch, not once per member.
    Values are a pure function of the step index (evaluated at the exact
    engine grid ``k * dt``), so any member's window is a plain slice.
    """

    def __init__(self) -> None:
        self._plans: Dict[str, np.ndarray] = {}

    @staticmethod
    def key(spec: ScenarioSpec, index: int, take_abs: bool) -> str:
        """Cache key for one harvester's plan.

        ``source_resistance`` is excluded: an open-circuit voltage
        waveform is by definition independent of the source's Thevenin
        resistance, so a resistance sweep shares one plan.  ``take_abs``
        marks a rectified plan, so the same harvester behind different
        rectifiers cannot alias.
        """
        entry = spec.harvesters[index]
        params = dict(spec._harvester_params(index, entry))
        params.pop("source_resistance", None)
        return json.dumps(
            {
                "kind": entry.kind,
                "params": params,
                "dt": spec.dt,
                "variant": "v-abs" if take_abs else "v",
            },
            sort_keys=True,
            default=str,
        )

    def voltage_values(
        self, key: str, injector: RectifiedInjector, take_abs: bool,
        dt: float, steps: int,
    ) -> np.ndarray:
        plan = self._plans.get(key)
        if plan is None or len(plan) < steps:
            times = np.arange(0, steps) * dt
            values = injector.harvester.open_circuit_voltage_array(times)
            if take_abs:
                values = np.abs(values)
            plan = np.asarray(values, dtype=float)
            self._plans[key] = plan
        return plan


class _Lane:
    """One batch member: a built system plus its array-pass state."""

    __slots__ = (
        "index", "spec", "overrides", "system", "sim", "rail", "platform",
        "physics", "s_max", "dt", "plan", "drop", "r_total",
        "done", "pending_scalar", "backoff",
    )

    def __init__(self, index: int, spec: ScenarioSpec,
                 overrides: Dict[str, Any]):
        self.index = index
        self.spec = spec
        self.overrides = overrides
        self.system = None
        self.sim = None
        self.rail: Optional[SupplyRail] = None
        self.platform = None
        self.physics = None
        self.s_max = -1
        self.dt = spec.dt
        self.plan: Optional[np.ndarray] = None
        self.drop = 0.0
        self.r_total = 1.0
        self.done = False
        self.pending_scalar = 0
        self.backoff = 0


@dataclass
class _Gathered:
    """One lane's regime for the pass about to run."""

    lane: _Lane
    v: float
    horizon: int
    profile: Any


def _build_lane(index: int, spec: ScenarioSpec,
                overrides: Dict[str, Any]) -> _Lane:
    """Construct a lane: build the system and install the probes."""
    lane = _Lane(index, spec, overrides)
    system = spec.build()
    system.install_probes(decimate=spec.decimate)
    lane.system = system
    lane.sim = system.simulator
    lane.rail = system.rail
    lane.platform = system.platform
    lane.s_max = lane.sim._last_startable_step(spec.duration)
    lane.sim._recorder.reserve(lane.s_max + 1)
    return lane


def _lane_simple(lane: _Lane, cache: _PlanCache) -> bool:
    """Whether a built member can join the simple pass.

    The member's rail must chunk under the solo fast kernel (the rail is
    the simulator's only component, every probe bulk-samples, no stop
    condition needs per-step observation) and have the simple shape:
    one :class:`RectifiedInjector` whose ``chunk_plan`` would publish a
    plan, one load, and capacitor physics with no leak and a draw
    overhead of 1.0.  On success the lane's full-horizon source plan is
    resolved from ``cache``.
    """
    sim = lane.sim
    rail = lane.rail
    if len(sim._components) != 1 or sim._components[0] is not rail:
        return False
    if not sim._recorder.chunk_capable() or sim._has_unchunkable_conditions:
        return False
    physics = rail.storage.chunk_physics()
    if (
        physics is None
        or physics.leak_tau is not None
        or physics.draw_overhead != 1.0
    ):
        return False
    if len(rail._loads) != 1 or len(rail._injectors) != 1:
        return False
    injector = rail._injectors[0]
    if (
        not isinstance(injector, RectifiedInjector)
        or type(injector).inject is not RectifiedInjector.inject
        or not injector.harvester.chunk_safe()
    ):
        return False
    chunk_params = getattr(injector.rectifier, "chunk_params", None)
    params = (
        chunk_params(injector.harvester.source_resistance)
        if chunk_params is not None
        else None
    )
    if params is None:
        return False
    lane.drop, lane.r_total, take_abs = params
    lane.physics = physics
    lane.plan = cache.voltage_values(
        cache.key(lane.spec, 0, take_abs), injector, take_abs, lane.dt,
        lane.s_max + 1,
    )
    return True


def _check_lane_stopped(lane: _Lane) -> None:
    """Post-advance bookkeeping shared by every execution path."""
    sim = lane.sim
    conditions = sim._stop_conditions
    if sim.steps > lane.s_max or (
        conditions and any(cond(sim.t) for cond in conditions)
    ):
        lane.done = True


def _run_scalar_steps(lane: _Lane, count: int, stats: BatchStats) -> None:
    """Settle ``count`` steps through the unmodified reference path."""
    sim = lane.sim
    chunk_stats = sim.chunk_stats
    for _ in range(count):
        if sim.steps > lane.s_max:
            lane.done = True
            return
        chunk_stats.fallback_steps += 1
        sim.step()
        stats.settled += 1
        conditions = sim._stop_conditions
        if conditions and any(cond(sim.t) for cond in conditions):
            lane.done = True
            return
    if sim.steps > lane.s_max:
        lane.done = True


def _advance_chunk_scalar(lane: _Lane, stats: BatchStats) -> None:
    """Advance a lone lane one chunk through the ordinary scalar loop."""
    sim = lane.sim
    n = min(sim.chunk_size, lane.s_max - sim.steps + 1)
    taken = 0
    if n > 1:
        taken = lane.rail.step_chunk(sim.t, sim.dt, n)
    if taken:
        lane.backoff = 0
        chunk_stats = sim.chunk_stats
        chunk_stats.chunks += 1
        chunk_stats.chunked_steps += taken
        first = sim.steps + 1
        sim.steps += taken
        sim.t = sim.steps * sim.dt
        sim._recorder.sample_chunk(first, taken, sim.dt)
        stats.advanced += taken
        _check_lane_stopped(lane)
    else:
        lane.backoff = (
            min(2 * lane.backoff, _MAX_BACKOFF) if lane.backoff else 1
        )
        lane.pending_scalar = lane.backoff


def _finish_solo(lane: _Lane, stats: BatchStats) -> None:
    """Run a lane to completion on its simulator's own fast loop.

    The loop continues from the lane's current state; its grow/backoff
    schedule only changes which steps chunk, never their arithmetic.
    """
    chunk_stats = lane.sim.chunk_stats
    chunked0 = chunk_stats.chunked_steps
    fallback0 = chunk_stats.fallback_steps
    lane.sim._run_fast(lane.spec.duration, None, lane.sim.steps)
    lane.done = True
    stats.advanced += chunk_stats.chunked_steps - chunked0
    stats.settled += chunk_stats.fallback_steps - fallback0


def _gather(lane: _Lane) -> Optional[_Gathered]:
    """One lane's regime for the next pass, or None to settle scalar-side.

    Mirrors :meth:`SupplyRail.step_chunk`'s gather phase: a fresh load
    profile at the present voltage, the horizon bounded by its
    ``max_steps`` and the last startable step.  The source window comes
    from the lane's precomputed full-horizon plan instead of a
    per-chunk ``chunk_plan`` call.
    """
    sim = lane.sim
    remaining = lane.s_max - sim.steps + 1
    if remaining <= 0:
        lane.done = True
        return None
    v = lane.physics.read_voltage()
    profile = lane.rail._loads[0].load_profile(sim.t, sim.dt, v)
    if profile is None:
        return None
    horizon = remaining
    if profile.max_steps is not None:
        if profile.max_steps <= 0:
            return None
        horizon = min(horizon, profile.max_steps)
    return _Gathered(lane=lane, v=v, horizon=horizon, profile=profile)


def _pass_order(members: List[_Gathered]) -> None:
    """Sort a pass group so lanes sharing plans and step positions are
    adjacent (member order within a pass is free — every lane commits
    independently).  Runs of identical (plan, start) then fill their
    window columns with one broadcast slice each instead of M strided
    column writes."""
    members.sort(key=lambda g: (id(g.lane.plan), g.lane.sim.steps))


def _source_windows(members: Sequence[_Gathered], pass_n: int) -> np.ndarray:
    """The ``[pass_n, M]`` source-value matrix of a pass.

    Members must be in :func:`_pass_order`; each run of lanes sharing a
    plan array and step position fills as one broadcast column block.
    Rows past a short run's plan stay zero — they are beyond every such
    lane's horizon and never commit.
    """
    m_count = len(members)
    vals = np.zeros((pass_n, m_count), dtype=float)
    begin = 0
    while begin < m_count:
        lane = members[begin].lane
        plan = lane.plan
        start = lane.sim.steps
        end = begin + 1
        while (
            end < m_count
            and members[end].lane.plan is plan
            and members[end].lane.sim.steps == start
        ):
            end += 1
        span = min(pass_n, len(plan) - start)
        vals[:span, begin:end] = plan[start:start + span, None]
        begin = end
    return vals


def _compiled_windows(
    lanes: Sequence[_Lane], horizons: np.ndarray
) -> Optional[np.ndarray]:
    """Per-lane data pointers into each lane's full source plan.

    The compiled kernel reads each lane's pass window in place (no
    [pass_n, M] matrix, no ``tolist``).  Returns None when any plan
    cannot back a raw double pointer — then the numpy pass runs.
    """
    ptrs = np.empty(len(lanes), dtype=np.uintp)
    for m, lane in enumerate(lanes):
        plan = lane.plan
        if (
            not isinstance(plan, np.ndarray)
            or plan.dtype != np.float64
            or not plan.flags.c_contiguous
        ):
            return None
        start = lane.sim.steps
        if len(plan) - start < int(horizons[m]):
            return None
        ptrs[m] = plan.ctypes.data + start * 8
    return ptrs


def _commit_pass(
    members: Sequence[_Gathered],
    horizons: np.ndarray,
    taken: np.ndarray,
    v: np.ndarray,
    harvested: np.ndarray,
    consumed: np.ndarray,
    starved: np.ndarray,
    e_dem_py: Sequence[float],
    vcc: np.ndarray,
    stats: BatchStats,
) -> None:
    """Fold a finished pass back into every member lane.

    Mirrors the commit the solo fast kernel performs after
    ``step_chunk``: voltage write-back, stats ledger, the load's
    commit, probe bulk-sampling, then the stop-condition / end-of-run
    checks.
    """
    for m, gathered in enumerate(members):
        lane = gathered.lane
        sim = lane.sim
        dt = sim.dt
        steps_taken = int(taken[m])
        if steps_taken > 0:
            lane.physics.write_voltage(float(v[m]))
            rail_stats = lane.rail.stats
            rail_stats.harvested = float(harvested[m])
            rail_stats.consumed = float(consumed[m])
            rail_stats.starved = float(starved[m])
            lane.rail._chunk_vcc = vcc[m, :steps_taken]
            commit = gathered.profile.commit
            if commit is not None:
                commit(steps_taken, dt, steps_taken * e_dem_py[m])
            chunk_stats = sim.chunk_stats
            chunk_stats.chunks += 1
            chunk_stats.chunked_steps += steps_taken
            first = sim.steps + 1
            sim.steps += steps_taken
            sim.t = sim.steps * dt
            sim._recorder.sample_chunk(first, steps_taken, dt)
            stats.advanced += steps_taken
        _check_lane_stopped(lane)
        if not lane.done and steps_taken < int(horizons[m]):
            # The boundary step itself must execute through the
            # reference path — exactly as the solo kernel's
            # failed-attempt fallback.
            lane.pending_scalar = max(lane.pending_scalar, 1)
    stats.passes += 1


def _simple_pass(members: List[_Gathered], stats: BatchStats) -> None:
    """Vectorized counterpart of :meth:`SupplyRail._chunk_loop_simple`.

    Per-step operation sequence and association order replicate the
    scalar loop exactly; lanes that hit an event boundary (or their own
    horizon) freeze in place via the ``alive`` mask while the rest of
    the batch keeps advancing.
    """
    _pass_order(members)
    m_count = len(members)
    lanes = [g.lane for g in members]
    cap_n = _pass_cap(m_count)
    horizons = np.array(
        [min(g.horizon, cap_n) for g in members], dtype=np.int64
    )
    pass_n = int(horizons.max())
    v = np.array([g.v for g in members], dtype=float)
    cap = np.array([lane.physics.capacitance for lane in lanes], dtype=float)
    half_c = 0.5 * cap
    v_max = np.array([lane.physics.v_max for lane in lanes], dtype=float)
    drop = np.array([lane.drop for lane in lanes], dtype=float)
    r_total = np.array([lane.r_total for lane in lanes], dtype=float)
    # Per-step demand precombined in Python floats, exactly as the
    # scalar loop computes its local e_dem.
    e_dem_py = [g.profile.power * g.lane.dt + g.profile.energy for g in members]
    e_dem = np.array(e_dem_py, dtype=float)
    v_rise = np.array([g.profile.v_rising for g in members], dtype=float)
    v_fall = np.array([g.profile.v_falling for g in members], dtype=float)
    has_fall = bool(np.isfinite(v_fall).any())
    harvested = np.array(
        [lane.rail.stats.harvested for lane in lanes], dtype=float
    )
    consumed = np.array(
        [lane.rail.stats.consumed for lane in lanes], dtype=float
    )
    starved = np.array(
        [lane.rail.stats.starved for lane in lanes], dtype=float
    )
    dt_raw = np.array([lane.dt for lane in lanes], dtype=float)
    # Lane-major so each lane's committed trace is a contiguous row
    # (the per-step column write touches one cache line per lane and
    # stays resident; a step-major layout would make every lane's
    # commit re-walk the whole matrix at page stride).  Rows are padded
    # so the column-write stride is not a power of two — an exact 32 KB
    # stride would alias every lane onto one cache set.
    vcc_full = np.empty((m_count, pass_n + 8), dtype=float)
    taken = horizons.copy()
    # Compiled fast path: the runtime-built C kernel replays the exact
    # scalar operation sequence per lane (see repro.sim._ckernel), so
    # masking, the deferred ledger and the early-exit heuristics are
    # unnecessary — every lane simply runs to its own event boundary or
    # horizon.  Ledger totals accumulate in the scalar loop's own
    # per-step order, so they match solo fast runs bit for bit.
    kernel = _ckernel.load()
    if kernel is not None:
        ptrs = _compiled_windows(lanes, horizons)
        if ptrs is not None:
            obs.counter("repro_batch_pass_path_total", path="c").inc()
            degrade.report("batch.kernel", "c")
            kernel(
                m_count, ptrs, horizons, v, cap, v_max, drop, r_total,
                e_dem, v_rise, v_fall, dt_raw, harvested, consumed,
                starved, vcc_full, pass_n + 8, taken,
            )
            _commit_pass(members, horizons, taken, v, harvested,
                         consumed, starved, e_dem_py, vcc_full, stats)
            return
    obs.counter("repro_batch_pass_path_total", path="numpy").inc()
    degrade.report("batch.kernel", "numpy")
    # When every lane shares one plan array *and* the same step position
    # (lock-step batches: the common case for numeric sweeps over a
    # single harvester configuration), the pass reads a zero-copy 1-D
    # window of the shared plan and broadcasts each scalar across the
    # batch — skipping the [pass_n, M] matrix build entirely.  Values
    # are identical either way (same array, same indices).
    plan0 = lanes[0].plan
    start0 = lanes[0].sim.steps
    if all(
        lane.plan is plan0 and lane.sim.steps == start0 for lane in lanes
    ):
        # Python-float rows: the fastest scalar ufunc operand path.
        vals = plan0[start0:start0 + pass_n].tolist()
    else:
        vals = _source_windows(members, pass_n)
    # Parameters every lane agrees on collapse to Python-float operands
    # (bit-identical arithmetic, one array read per step less; grid
    # sweeps usually vary only an axis or two).
    cap = _uniform_scalar(cap)
    half_c = 0.5 * cap if isinstance(cap, float) else half_c
    v_max = _uniform_scalar(v_max)
    drop = _uniform_scalar(drop)
    r_total = _uniform_scalar(r_total)
    e_dem = _uniform_scalar(e_dem)
    v_rise = _uniform_scalar(v_rise)
    v_fall = _uniform_scalar(v_fall)
    vcc = vcc_full[:, :pass_n]
    alive = np.ones(m_count, dtype=bool)
    alive_all = True
    min_hz = int(horizons.min())
    dt_arr = _uniform_scalar(dt_raw)
    # ``has_fall`` (computed above, pre-scalarization): skip the lower-
    # threshold comparison when no lane has one (the OFF phase:
    # v_falling is -inf across the batch) — the upper threshold is
    # always finite (boot/wake voltages), so it is always checked.
    # Preallocated per-step scratch: the hot loop runs allocation-free.
    b_head = np.empty(m_count, dtype=float)
    b_before = np.empty(m_count, dtype=float)
    b_q = np.empty(m_count, dtype=float)
    b_tv = np.empty(m_count, dtype=float)
    b_after = np.empty(m_count, dtype=float)
    b_gain = np.empty(m_count, dtype=float)
    b_rem = np.empty(m_count, dtype=float)
    b_deliv = np.empty(m_count, dtype=float)
    b_sdel = np.empty(m_count, dtype=float)
    b_ge = np.empty(m_count, dtype=bool)
    b_lt = np.empty(m_count, dtype=bool)
    b_starve = np.empty(m_count, dtype=bool)
    b_flag = np.empty(m_count, dtype=bool)
    # Deferred energy ledger.  Within an uninterrupted run of unmasked
    # no-starve steps every lane delivers exactly e_dem, and the commit
    # relation half_c*v'^2 = avail - e_dem makes the per-step harvest
    # gains telescope:
    #
    #   sum(dh) = half_c*(v_end^2 - v_start^2) + n*e_dem
    #   sum(delivered) = n*e_dem,  sum(starved) = 0
    #
    # so the per-step ledger arithmetic drops out of the hot loop and a
    # segment settles in O(1) vector ops when it closes (a starve, an
    # event, a frozen lane, or the end of the pass).  The vcc recursion
    # itself is untouched — traces stay bit-identical; the settled sums
    # differ from per-step accumulation only by float re-association,
    # far inside the kernel's documented ~1e-12 metrics tolerance.
    seg_sq = np.multiply(v, v)
    seg_start = 0
    deferred = True
    committed = 0

    def _settle_segment(upto: int) -> None:
        """Fold the deferred ledger for steps [seg_start, upto) using the
        present ``v`` as the segment-end voltage."""
        nonlocal seg_start
        n = upto - seg_start
        if n > 0:
            t = np.multiply(v, v, out=b_before)
            np.subtract(t, seg_sq, out=t)
            np.multiply(t, half_c, out=t)
            np.add(harvested, t, out=harvested)
            nd = np.multiply(e_dem, float(n), out=b_gain)
            np.add(harvested, nd, out=harvested)
            np.add(consumed, nd, out=consumed)
        seg_start = upto

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(pass_n):
            # Shared prefix, scalar-loop order: head = values[i]-v-drop;
            # vn = v + (head/r_total*dt)/C, clamped to v_max.  The
            # head>0 gate folds into max(q, 0): a non-positive charge
            # becomes +0.0 and v + 0.0 is bit-identical to v, and the
            # energy gain (after - before) is then a - a = +0.0, exactly
            # the scalar loop's dh = 0.0 for a non-charging step.
            head = np.subtract(vals[i], v, out=b_head)
            np.subtract(head, drop, out=head)
            q = np.divide(head, r_total, out=b_q)
            np.multiply(q, dt_arr, out=q)
            np.divide(q, cap, out=q)
            np.maximum(q, 0.0, out=q)
            tv = np.add(v, q, out=b_tv)
            np.minimum(tv, v_max, out=tv)
            ev = np.greater_equal(tv, v_rise, out=b_ge)
            if has_fall:
                lt = np.less(tv, v_fall, out=b_lt)
                ev = np.logical_or(ev, lt, out=b_ge)
            after = np.multiply(half_c, tv, out=b_after)
            np.multiply(after, tv, out=after)
            if alive_all:
                starve = np.greater_equal(e_dem, after, out=b_starve)
                flag = np.logical_or(ev, starve, out=b_flag)
                if not flag.any():
                    # Fast path: every lane commits, nobody starves —
                    # one reduction, no ledger arithmetic (deferred).
                    rem = np.subtract(after, e_dem, out=b_rem)
                    np.multiply(rem, 2.0, out=rem)
                    np.divide(rem, cap, out=rem)
                    np.sqrt(rem, out=v)
                    vcc[:, i] = v
                    committed = i + 1
                    if i + 1 >= min_hz:
                        np.greater(horizons, i + 1, out=alive)
                        alive_all = bool(alive.all())
                        live = int(np.count_nonzero(alive))
                        if live == 0:
                            break
                        if (
                            i + 1 >= _EARLY_EXIT_MIN_STEPS
                            and live * 4 < m_count
                        ):
                            np.copyto(taken, i + 1, where=alive)
                            break
                    continue
                if not ev.any():
                    # Some lane starves but nobody events: settle the
                    # open segment (v is still the pre-step voltage)
                    # and take this one step with the explicit ledger.
                    _settle_segment(i)
                    before = np.multiply(half_c, v, out=b_before)
                    np.multiply(before, v, out=before)
                    gain = np.subtract(after, before, out=b_gain)
                    np.add(harvested, gain, out=harvested)
                    rem = np.subtract(after, e_dem, out=b_rem)
                    np.multiply(rem, 2.0, out=rem)
                    np.divide(rem, cap, out=rem)
                    root = np.sqrt(rem, out=rem)
                    np.copyto(v, root)
                    np.copyto(v, 0.0, where=starve)
                    deliv = b_deliv
                    np.copyto(deliv, e_dem)
                    np.copyto(deliv, after, where=starve)
                    np.add(consumed, deliv, out=consumed)
                    sdel = np.subtract(e_dem, deliv, out=b_sdel)
                    np.add(starved, sdel, out=starved)
                    vcc[:, i] = v
                    committed = i + 1
                    np.multiply(v, v, out=seg_sq)
                    seg_start = i + 1
                    if i + 1 >= min_hz:
                        np.greater(horizons, i + 1, out=alive)
                        alive_all = bool(alive.all())
                        live = int(np.count_nonzero(alive))
                        if live == 0:
                            break
                        if (
                            i + 1 >= _EARLY_EXIT_MIN_STEPS
                            and live * 4 < m_count
                        ):
                            np.copyto(taken, i + 1, where=alive)
                            break
                    continue
            # Masked path: at least one lane is frozen or events now.
            if deferred:
                # All lanes committed steps [seg_start, i) unmasked and
                # v is unchanged since the last commit: settle once,
                # then run the explicit per-lane ledger from here on.
                _settle_segment(i)
                deferred = False
            newly = alive & ev
            if newly.any():
                np.copyto(taken, i, where=newly)
            commit = alive & ~ev
            before = np.multiply(half_c, v, out=b_before)
            np.multiply(before, v, out=before)
            gain = np.subtract(after, before, out=b_gain)
            np.copyto(harvested, harvested + gain, where=commit)
            starve = np.greater_equal(e_dem, after, out=b_starve)
            rem = np.subtract(after, e_dem, out=b_rem)
            np.multiply(rem, 2.0, out=rem)
            np.divide(rem, cap, out=rem)
            root = np.sqrt(rem, out=rem)
            np.copyto(v, root, where=commit)
            np.copyto(v, 0.0, where=commit & starve)
            deliv = b_deliv
            np.copyto(deliv, e_dem)
            np.copyto(deliv, after, where=starve)
            np.copyto(consumed, consumed + deliv, where=commit)
            sdel = np.subtract(e_dem, deliv, out=b_sdel)
            np.copyto(starved, starved + sdel, where=commit)
            vcc[:, i] = v
            alive = commit & (np.int64(i + 1) < horizons)
            alive_all = False
            live = int(np.count_nonzero(alive))
            if live == 0:
                break
            if i + 1 >= _EARLY_EXIT_MIN_STEPS and live * 4 < m_count:
                # Most lanes are frozen: cut the pass short (shorter
                # chunks are equally valid) and regather.
                np.copyto(taken, i + 1, where=alive)
                break
    if deferred:
        _settle_segment(committed)
    _commit_pass(members, horizons, taken, v, harvested, consumed,
                 starved, e_dem_py, vcc, stats)


def _lane_run(lane: _Lane):
    """The finished lane's run, as :meth:`EnergyDrivenSystem.run` returns it."""
    from repro.core.system import SystemRunResult

    return SystemRunResult(
        t_end=lane.sim.t,
        traces=lane.sim._recorder.traces(),
        rail=lane.rail,
        platform=lane.platform,
    )


def run_specs_batched(
    specs: Sequence[ScenarioSpec],
    overrides_list: Optional[Sequence[Dict[str, Any]]] = None,
    capture_traces: Sequence[str] = (),
    max_trace_samples: int = MAX_TRACE_SAMPLES,
    stats: Optional[BatchStats] = None,
    round_hook: Optional[RoundHook] = None,
) -> List[RunResult]:
    """Run a batch of same-topology scenarios through the SoA kernel.

    Returns one :class:`RunResult` per spec, in order — each identical
    in spec hash, event timing and vcc trace to a per-scenario fast run.
    Members without the simple rail shape (see :func:`_lane_simple`)
    run the per-scenario fast path on the system already built (and
    count as ``diverged`` in ``stats``); a member that fails to build or
    run becomes an error result, exactly as
    :func:`repro.spec.runner.run_point_payload` produces.

    Args:
        specs: the batch members (callers group by :func:`topology_key`;
            mixed batches still produce correct results, just fewer
            shared passes).
        overrides_list: per-member override dicts recorded on results.
        capture_traces / max_trace_samples: as for the point worker.
        stats: a :class:`BatchStats` to accumulate into (optional).
        round_hook: called with the running stats after every round.
    """
    if overrides_list is None:
        overrides_list = [{} for _ in specs]
    if stats is None:
        stats = BatchStats()
    # Delta basis for the obs flush below: the caller may hand in a
    # BatchStats that already accumulated earlier batches.
    stats0 = stats.to_dict()
    t0 = time.monotonic()
    batch_span = obs.span("batch.run", specs=len(specs))
    batch_span.__enter__()
    results: List[Optional[RunResult]] = [None] * len(specs)
    cache = _PlanCache()
    lanes: List[_Lane] = []
    for index, (spec, overrides) in enumerate(zip(specs, overrides_list)):
        overrides = dict(overrides)
        if not batchable(spec):
            results[index] = run_point(
                spec, overrides, capture_traces, max_trace_samples
            )
            continue
        try:
            lane = _build_lane(index, spec, overrides)
            simple = _lane_simple(lane, cache)
        except Exception as error:
            results[index] = failed_point(spec, overrides, error)
            continue
        if simple:
            lanes.append(lane)
            continue
        # Not the simple shape: the solo fast path, on the system just
        # built.  Its results are wrapped now, so its full-horizon
        # recorder is freed before the lanes run.
        results[index] = run_point(
            spec, overrides, capture_traces, max_trace_samples,
            run=functools.partial(
                lane.system.run, spec.duration, decimate=spec.decimate
            ),
        )
        stats.diverged += 1
    stats.members += len(lanes)
    try:
        _drive_lanes(lanes, stats, round_hook)
        for lane in lanes:
            results[lane.index] = run_point(
                lane.spec, lane.overrides, capture_traces, max_trace_samples,
                run=functools.partial(_lane_run, lane),
            )
    except Exception:
        # Batch-machinery safety net: rerun every unfinished member
        # through the per-scenario path on a fresh system (results are
        # deterministic, so a rebuild reproduces the run exactly).
        for lane in lanes:
            if results[lane.index] is None:
                results[lane.index] = run_point(
                    lane.spec, lane.overrides, capture_traces,
                    max_trace_samples,
                )
                stats.diverged += 1
    if obs.obs_enabled():
        delta = {
            key: value - stats0.get(key, 0)
            for key, value in stats.to_dict().items()
        }
        for key in ("members", "passes", "advanced", "settled", "diverged"):
            if delta.get(key):
                obs.counter(f"repro_batch_{key}_total").inc(delta[key])
        obs.histogram("repro_batch_run_seconds").observe(
            time.monotonic() - t0
        )
        batch_span.annotate(**delta)
    batch_span.__exit__(None, None, None)
    return [result for result in results if result is not None]


def _drive_lanes(
    lanes: List[_Lane], stats: BatchStats, round_hook: Optional[RoundHook]
) -> None:
    """The round loop: settle, gather, pass — until all lanes end."""
    while True:
        runnable = [lane for lane in lanes if not lane.done]
        if not runnable:
            return
        if len(runnable) < _MIN_VECTOR_LANES:
            for lane in runnable:
                stats.diverged += 1
                _finish_solo(lane, stats)
            return
        # 1. Scalar settlement: event-boundary steps and backoff runs
        #    execute through the unmodified reference path.
        for lane in runnable:
            if lane.pending_scalar and not lane.done:
                count = lane.pending_scalar
                lane.pending_scalar = 0
                _run_scalar_steps(lane, count, stats)
        # 2. Gather every lane's current regime.  A constant per-step
        #    energy demand joins the shared pass; a current or resistive
        #    term advances through the scalar chunk loop.
        simple: List[_Gathered] = []
        for lane in runnable:
            if lane.done:
                continue
            gathered = _gather(lane)
            if gathered is None:
                if not lane.done:
                    lane.backoff = (
                        min(2 * lane.backoff, _MAX_BACKOFF)
                        if lane.backoff
                        else 1
                    )
                    lane.pending_scalar = lane.backoff
                continue
            lane.backoff = 0
            profile = gathered.profile
            if profile.resistance is None and profile.current == 0.0:
                simple.append(gathered)
            else:
                _advance_chunk_scalar(lane, stats)
        # 3. One vectorized pass when the group pays for array dispatch,
        #    the ordinary scalar chunk loop otherwise.
        if len(simple) >= _MIN_VECTOR_GROUP:
            _simple_pass(simple, stats)
        else:
            for gathered in simple:
                _advance_chunk_scalar(gathered.lane, stats)
        if round_hook is not None:
            round_hook(stats)
