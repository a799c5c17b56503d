"""Runtime-compiled C fast path for the batched simple pass.

The hot loop of :func:`repro.sim.batch._simple_pass` is a per-step
voltage recursion whose dependency chain (divide, then square root)
cannot be hidden by numpy's one-ufunc-at-a-time execution.  This module
compiles a C transcription of :meth:`SupplyRail._chunk_loop_simple` at
first use — each lane runs the exact scalar operation sequence, and
lanes are interleaved in blocks so their independent chains pipeline
through the divider — and loads it through :mod:`ctypes`.

Exactness: the C body performs the same IEEE-754 double operations in
the same order as the Python loop (CPython floats are C doubles), and
the build disables contraction (``-ffp-contract=off -fno-fast-math``)
so no fused multiply-add can perturb a rounding.  A self-check at load
time replays a small scenario through ``_chunk_loop_simple`` itself on
a real rail and discards the library on any bit difference.

Everything degrades gracefully: no compiler, a failed build, a failed
self-check, or ``REPRO_BATCH_CKERNEL=0`` simply leave the numpy pass in
charge.  The compiled object is cached on disk keyed by a digest of the
source and flags, so each machine compiles once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

from repro import faults, obs

#: Interleave width: independent per-lane recursions advanced together
#: so their divide/sqrt latencies overlap.  8 saturates the divider on
#: current x86-64 cores; the tail loop handles any remainder.
_BLOCK = 8

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define BLK %(block)d

/* Exact transcription of SupplyRail._chunk_loop_simple for one lane,
   starting at pass step i0.  Returns the committed step count (an
   event boundary leaves the lane frozen at the pre-step voltage). */
static int64_t lane_tail(
    const double *values, int64_t i0, int64_t n,
    double *v_io, double C, double vm, double dp, double rt,
    double ed, double vr, double vf, double dtv,
    double *hv_io, double *co_io, double *st_io, double *row)
{
    const double half_c = 0.5 * C;
    double vv = *v_io, hv = *hv_io, co = *co_io, st = *st_io;
    int64_t i = i0;
    while (i < n) {
        double head = values[i] - vv - dp;
        double vn, dh;
        if (head > 0.0) {
            double before = half_c * vv * vv;
            vn = vv + (head / rt * dtv) / C;
            if (vn > vm) vn = vm;
            dh = half_c * vn * vn - before;
        } else {
            vn = vv;
            dh = 0.0;
        }
        if (vn >= vr || vn < vf) break;
        double avail = half_c * vn * vn;
        double delivered;
        if (ed >= avail) { vn = 0.0; delivered = avail; }
        else { vn = sqrt(2.0 * (avail - ed) / C); delivered = ed; }
        hv += dh;
        co += delivered;
        st += ed - delivered;
        vv = vn;
        row[i] = vv;
        ++i;
    }
    *v_io = vv; *hv_io = hv; *co_io = co; *st_io = st;
    return i;
}

void simple_pass(
    int64_t m_count,
    const uintptr_t *vals,      /* per-lane pointer to pass step 0 */
    const int64_t *horizons,
    double *v,
    const double *cap,
    const double *v_max,
    const double *drop,
    const double *r_total,
    const double *e_dem,
    const double *v_rise,
    const double *v_fall,
    const double *dt,
    double *harvested,
    double *consumed,
    double *starved,
    double *vcc,                /* [m_count, row_stride] */
    int64_t row_stride,
    int64_t *taken)
{
    int64_t lane = 0;
    while (lane + BLK <= m_count) {
        const double *values[BLK];
        double vv[BLK], C[BLK], hc[BLK], vm[BLK], dp[BLK], rt[BLK];
        double ed[BLK], vr[BLK], vf[BLK], dtv[BLK];
        double hv[BLK], co[BLK], st[BLK];
        double *row[BLK];
        int64_t n_min = horizons[lane];
        for (int k = 0; k < BLK; ++k) {
            int64_t l = lane + k;
            values[k] = (const double *) vals[l];
            vv[k] = v[l]; C[k] = cap[l]; hc[k] = 0.5 * C[k];
            vm[k] = v_max[l]; dp[k] = drop[l]; rt[k] = r_total[l];
            ed[k] = e_dem[l]; vr[k] = v_rise[l]; vf[k] = v_fall[l];
            dtv[k] = dt[l];
            hv[k] = harvested[l]; co[k] = consumed[l]; st[k] = starved[l];
            row[k] = vcc + l * row_stride;
            if (horizons[l] < n_min) n_min = horizons[l];
        }
        /* Lock-step over the block while nobody events.  The branchless
           first half computes identical doubles to the branch form: a
           non-positive charge clamps to +0.0 (vv + 0.0 == vv, and the
           energy gain becomes a - a = +0.0, the scalar loop's dh = 0.0),
           and vv <= vm always holds so the unconditional clamp is a
           no-op on a non-charging step. */
        int64_t i = 0;
        for (; i < n_min; ++i) {
            double vn[BLK], dh[BLK];
            int ev = 0;
            for (int k = 0; k < BLK; ++k) {
                double head = values[k][i] - vv[k] - dp[k];
                double before = hc[k] * vv[k] * vv[k];
                double q = head / rt[k] * dtv[k] / C[k];
                q = (q > 0.0) ? q : 0.0;
                double tv = vv[k] + q;
                tv = (tv > vm[k]) ? vm[k] : tv;
                vn[k] = tv;
                dh[k] = hc[k] * tv * tv - before;
                ev |= (tv >= vr[k]) | (tv < vf[k]);
            }
            if (ev) break;  /* no lane committed this step */
            for (int k = 0; k < BLK; ++k) {
                double avail = hc[k] * vn[k] * vn[k];
                int sv = (ed[k] >= avail);
                double root = sqrt(2.0 * (avail - ed[k]) / C[k]);
                double vfin = sv ? 0.0 : root;
                double delivered = sv ? avail : ed[k];
                hv[k] += dh[k];
                co[k] += delivered;
                st[k] += ed[k] - delivered;
                vv[k] = vfin;
                row[k][i] = vfin;
            }
        }
        /* Settle each lane to its own event or horizon (step i reruns
           from the unchanged pre-step state, so the eventing lane
           freezes there and the others continue). */
        for (int k = 0; k < BLK; ++k) {
            int64_t l = lane + k;
            double vl = vv[k], hl = hv[k], cl = co[k], sl = st[k];
            taken[l] = lane_tail(values[k], i, horizons[l], &vl,
                                 C[k], vm[k], dp[k], rt[k], ed[k],
                                 vr[k], vf[k], dtv[k],
                                 &hl, &cl, &sl, row[k]);
            v[l] = vl; harvested[l] = hl; consumed[l] = cl; starved[l] = sl;
        }
        lane += BLK;
    }
    for (; lane < m_count; ++lane) {
        double vl = v[lane], hl = harvested[lane];
        double cl = consumed[lane], sl = starved[lane];
        taken[lane] = lane_tail((const double *) vals[lane], 0,
                                horizons[lane], &vl,
                                cap[lane], v_max[lane], drop[lane],
                                r_total[lane], e_dem[lane], v_rise[lane],
                                v_fall[lane], dt[lane],
                                &hl, &cl, &sl, vcc + lane * row_stride);
        v[lane] = vl; harvested[lane] = hl;
        consumed[lane] = cl; starved[lane] = sl;
    }
}
""" % {"block": _BLOCK}

#: No ``-march``: correctly-rounded scalar/SSE2 code is both portable
#: and (measured) faster here than the wide-vector encodings, and the
#: contraction switches guarantee no FMA rewrites the rounding sequence.
_CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]

_UNSET = object()
_cached: object = _UNSET

#: Circuit breaker on the runtime build: after this many consecutive
#: failed compile attempts the loader stops invoking the compiler and
#: the numpy pass stays in charge until :func:`reset_breaker` (a flaky
#: toolchain should cost a bounded number of build attempts, not one
#: per ``reset_cache``/process-pool respawn).  Successful builds —
#: including cache hits — close the breaker.
BREAKER_THRESHOLD = 3
_compile_failures = 0


def breaker_open() -> bool:
    """True when repeated compile failures disabled further attempts."""
    return _compile_failures >= BREAKER_THRESHOLD


def reset_breaker() -> None:
    """Close the compile circuit breaker (tests, operator override)."""
    global _compile_failures
    _compile_failures = 0


def _note_compile_failure() -> None:
    global _compile_failures
    _compile_failures += 1
    obs.counter("repro_ckernel_compile_failures_total").inc()
    if _compile_failures == BREAKER_THRESHOLD:
        obs.counter("repro_ckernel_breaker_trips_total").inc()
        obs.instant("ckernel.breaker_open", failures=_compile_failures)


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_DIR")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-ckernel")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile() -> Optional[str]:
    """Build (or reuse) the shared object; returns its path or None."""
    global _compile_failures
    if breaker_open():
        return None
    digest = hashlib.sha256(
        ("\x00".join([_SOURCE] + _CFLAGS)).encode()
    ).hexdigest()[:16]
    # The injection fires *before* the disk-cache check so chaos runs
    # exercise the breaker even on machines holding a warm build cache.
    if faults.fire("ckernel.compile_fail", digest):
        _note_compile_failure()
        return None
    cache = _cache_dir()
    so_path = os.path.join(cache, f"simple_pass-{digest}.so")
    if os.path.exists(so_path):
        _compile_failures = 0
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        # No toolchain at all is a permanent condition, not a flaky
        # build — it neither trips nor closes the breaker.
        return None
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as work:
            c_path = os.path.join(work, "simple_pass.c")
            with open(c_path, "w") as fh:
                fh.write(_SOURCE)
            tmp_so = os.path.join(work, "simple_pass.so")
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_so, c_path, "-lm"],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                _note_compile_failure()
                return None
            # Atomic publish: concurrent builders (warm-pool workers)
            # race benignly to install identical bytes.
            os.replace(tmp_so, so_path)
        _compile_failures = 0
        return so_path
    except (OSError, subprocess.SubprocessError):
        _note_compile_failure()
        return None


def _bind(so_path: str):
    lib = ctypes.CDLL(so_path)
    fn = lib.simple_pass
    fn.restype = None
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    uptr = np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")
    fn.argtypes = [
        ctypes.c_int64,  # m_count
        uptr,            # vals (per-lane data pointers)
        i64,             # horizons
        f64, f64, f64, f64, f64, f64, f64, f64, f64,  # v .. dt
        f64, f64, f64,   # harvested, consumed, starved
        f64,             # vcc
        ctypes.c_int64,  # row_stride
        i64,             # taken
    ]
    return fn


def _self_check(fn) -> bool:
    """Replay a tiny mixed scenario and demand bit-identical results.

    The oracle is :meth:`SupplyRail._chunk_loop_simple` itself, run on a
    real rail per lane with the same parameters.  The case exercises
    every branch: charging, the v_max clamp, a starved step, a
    non-charging step, and an event boundary on one lane while the
    others run to horizon.
    """
    from repro.power.rail import SupplyRail
    from repro.sim.kernel import LoadProfile, VoltageSourcePlan
    from repro.storage.capacitor import Capacitor

    n = 40
    steps = np.arange(n, dtype=float)
    plan = np.ascontiguousarray(
        np.maximum(1.2 * np.sin(steps * 0.7), 0.0)
    )
    m = 3
    params = [
        # (v0, C, v_max, drop, r_total, e_dem, v_rise, v_fall, dt)
        (0.30, 47e-6, 3.3, 0.2, 150.0, 5e-11, 2.9, -np.inf, 50e-6),
        (0.90, 10e-6, 1.0, 0.2, 50.0, 1e-9, 1.0, -np.inf, 50e-6),
        (0.05, 22e-6, 3.3, 0.2, 500.0, 2e-7, 2.9, 0.01, 50e-6),
    ]
    cols = [np.array([p[j] for p in params]) for j in range(9)]
    v, cap, vmx, drp, rt, ed, vr, vf, dt = cols
    hv = np.zeros(m)
    co = np.zeros(m)
    st = np.zeros(m)
    horizons = np.full(m, n, dtype=np.int64)
    stride = n + 8
    vcc = np.empty((m, stride))
    taken = np.empty(m, dtype=np.int64)
    ptrs = np.full(m, plan.ctypes.data, dtype=np.uintp)
    fn(m, ptrs, horizons, v, cap, vmx, drp, rt, ed, vr, vf, dt,
       hv, co, st, vcc, stride, taken)
    values = plan.tolist()
    for lane, (v0, C, v_max, drop, r_total, e_dem, v_rise, v_fall,
               step) in enumerate(params):
        rail = SupplyRail(Capacitor(C, v_max=v_max, v_initial=v0))
        physics = rail.storage.chunk_physics()
        ri, _ = rail._chunk_loop_simple(
            physics,
            VoltageSourcePlan(values=values, drop=drop, r_total=r_total),
            LoadProfile(energy=e_dem, v_rising=v_rise, v_falling=v_fall),
            v0, step, n,
        )
        ledger = rail.stats
        if int(taken[lane]) != ri or physics.read_voltage() != v[lane]:
            return False
        if (ledger.harvested != hv[lane] or ledger.consumed != co[lane]
                or ledger.starved != st[lane]):
            return False
        if list(vcc[lane, :ri]) != rail._chunk_vcc:
            return False
    return True


def load():
    """The bound ``simple_pass`` callable, or None when unavailable."""
    global _cached
    if _cached is not _UNSET:
        return _cached
    fn = None
    if os.environ.get("REPRO_BATCH_CKERNEL", "1") != "0":
        try:
            so_path = _compile()
            if so_path is not None:
                candidate = _bind(so_path)
                if _self_check(candidate):
                    fn = candidate
        except Exception:
            fn = None
    _cached = fn
    return fn


def reset_cache() -> None:
    """Forget the memoized load result (tests toggle the env switch)."""
    global _cached
    _cached = _UNSET
