"""The host's speed while the benchmark's work runs, from a reference probe.

The benchmark runs on the virtual CPUs of a shared host.  Each vCPU
switches, independently of the other and for stretches of a second to
tens of seconds, between its normal speed and about half of it: the
same pure-Python loop took 5 ms or 10 ms per call, and over a 20 s
window it averaged anywhere from 6 to 10 ms.  Any host-time figure
therefore spreads by 15-25% from run to run, the width of a regression
bound.

So the benchmark scales its timings to a nominal host speed.  While a
measured process runs, a profiling timer (``ITIMER_VIRTUAL``, which
ticks only while the process executes) interrupts it every
:data:`TICK_S` of CPU time and times :func:`reference_work` on the same
vCPU with the thread's CPU clock.  Every process taking part writes its
samples, stamped with the monotonic clock, to a file of its own in one
directory: the benchmark process, the pool workers it forks, and the
fresh processes whose set-up it times.  A span of work measured from
``a`` to ``b`` (monotonic seconds) is then scaled by the nominal
reference time times the mean reference speed of the samples taken in
or around it (:meth:`Samples.factor`).  A change to the program moves
the scaled figures as it moves host time; the host switching speed,
which moves the reference by the same factor, does not.

The reference lives here and never in the program under test, and it
resembles the program's hot loops: an interpreter dispatching small
integer operations through a table of bound methods (as the ISA
interpreter does) and a float recurrence with branches (as the
simulation kernels do).
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from typing import Dict, List, Optional, Tuple

#: Reference steps per probe sample (about 1 ms at normal speed).
PROBE_STEPS = 2400

#: CPU seconds between probe samples of one process (about 1% overhead).
TICK_S = 0.1

#: Reference CPU time of one probe sample on the nominal host: the
#: normal-speed median measured on a 2-vCPU x86-64 VM (Intel Xeon,
#: Python 3.11).  Scaled figures read as seconds on that host.
NOMINAL_S = 0.00055

#: Samples this far (s) beyond a span's ends also count for it, so a
#: span shorter than a tick still gets its host speed.
PAD_S = 0.5

#: Longer spans are scaled piece by piece, each with its own samples.
PIECE_S = 1.0


class _Machine:
    """A tiny register machine: the interpreter half of the reference."""

    def __init__(self) -> None:
        self.regs = [0] * 8
        self.pc = 0
        self.ops = (self.add, self.xor, self.shift, self.branch)

    def add(self, a: int, b: int) -> None:
        self.regs[a] = (self.regs[a] + self.regs[b] + 1) & 0xFFFF

    def xor(self, a: int, b: int) -> None:
        self.regs[a] ^= self.regs[b]

    def shift(self, a: int, b: int) -> None:
        self.regs[a] = (self.regs[a] << 1 | self.regs[a] >> 15) & 0xFFFF

    def branch(self, a: int, b: int) -> None:
        if self.regs[a] & 1:
            self.pc = (self.pc + b) & 63


_PROGRAM = [((i * 7) % 4, i % 8, (i * 3) % 8) for i in range(64)]


def reference_work(steps: int = PROBE_STEPS) -> int:
    """A fixed amount of interpreter-style and kernel-style Python work."""
    machine = _Machine()
    ops = machine.ops
    for _ in range(steps):
        op, a, b = _PROGRAM[machine.pc]
        ops[op](a, b)
        machine.pc = (machine.pc + 1) & 63
    v, i_load = 3.0, 0.0
    for k in range(steps):
        dv = (0.5 - i_load) * 1e-3 - v * 2e-4
        v += dv
        if v < 1.8:
            i_load = 0.0
        elif v > 2.2 or k % 97 == 0:
            i_load = 0.4
    return sum(machine.regs) + int(v * 1e6)


class Probe:
    """Samples the reference on a CPU-time timer in this process and in
    every process it forks afterwards, into files under ``directory``.
    """

    def __init__(self, directory: str, tick_s: float = TICK_S) -> None:
        self.directory = directory
        self.tick_s = tick_s
        self._fd: Optional[int] = None
        os.makedirs(directory, exist_ok=True)

    def start(self) -> None:
        """Sample here, and in each child forked from now on."""
        os.register_at_fork(after_in_child=self._restart_in_child)
        self._arm()

    def stop(self) -> None:
        """Stop sampling in this process (forked children keep theirs
        until they exit)."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _arm(self) -> None:
        path = os.path.join(self.directory, f"probe-{os.getpid()}.txt")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.tick_s, self.tick_s)

    def _restart_in_child(self) -> None:
        # Timers are not inherited across fork; the handler and the
        # parent's file descriptor are, so the child opens its own file.
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            self._arm()

    def sample(self) -> None:
        """Take one sample now (also what the timer does)."""
        t0 = time.thread_time()
        reference_work()
        cpu = time.thread_time() - t0
        if self._fd is not None:
            os.write(self._fd, b"%.6f %.9f\n" % (time.monotonic(), cpu))

    def _sample(self, signum, frame) -> None:
        self.sample()


class Samples:
    """Every probe sample written under a directory, by time."""

    def __init__(self, directory: str) -> None:
        rows: List[Tuple[float, float, int]] = []
        for name in os.listdir(directory):
            if not (name.startswith("probe-") and name.endswith(".txt")):
                continue
            pid = int(name[len("probe-"):-len(".txt")])
            with open(os.path.join(directory, name), encoding="ascii") as f:
                for line in f:
                    parts = line.split()
                    # A process killed mid-write leaves a short last line.
                    if len(parts) == 2 and float(parts[1]) > 0.0:
                        rows.append((float(parts[0]), float(parts[1]), pid))
        rows.sort()
        self._all = self._index(rows)
        self._by_pid: Dict[int, Tuple[List[float], List[float]]] = {}
        for pid in {row[2] for row in rows}:
            self._by_pid[pid] = self._index([r for r in rows if r[2] == pid])

    @staticmethod
    def _index(rows) -> Tuple[List[float], List[float]]:
        return [t for t, _, _ in rows], [1.0 / cpu for _, cpu, _ in rows]

    def factor(self, start: float, end: float, pid: Optional[int] = None,
               pad: float = PAD_S) -> float:
        """Nominal seconds per host second over ``[start, end]``.

        :data:`NOMINAL_S` times the mean reference speed of the samples
        (of every process, or only of ``pid``) within ``pad`` seconds of
        the span; of the nearest four when fewer than three fall there.
        """
        times, speeds = self._all if pid is None else self._by_pid.get(
            pid, ([], []))
        lo = bisect.bisect_left(times, start - pad)
        hi = bisect.bisect_right(times, end + pad)
        if hi - lo < 3:
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(times), mid + 2)
        if hi <= lo:
            raise RuntimeError("no host-speed probe samples were recorded")
        return NOMINAL_S * sum(speeds[lo:hi]) / (hi - lo)

    def scaled(self, start: float, end: float, pid: Optional[int] = None,
               pad: float = PAD_S) -> float:
        """``end - start`` host seconds in nominal-host seconds, summed
        over pieces of at most :data:`PIECE_S`."""
        total, a = 0.0, start
        while True:
            b = min(end, a + PIECE_S)
            total += (b - a) * self.factor(a, b, pid, pad)
            if b >= end:
                return total
            a = b
