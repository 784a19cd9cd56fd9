"""Machine-speed sampling for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by a quarter or
more within seconds to minutes (neighbours on the host contending for the
same cores), and the drift slows CPU time as much as wall time.  Every
benchmark process therefore times a short fixed kernel, a *slice*:

- ``CALIBRATION_SLICES`` times right after its imports, and
- once every ``SAMPLE_EVERY_S`` seconds while the operation runs, from a
  ``SIGALRM`` handler, so the samples cover the same seconds as the work.

A process's set-up time is scaled by ``REF_SLICE_S / m`` with ``m`` the
trimmed mean of its calibration slices, and its run, wall and CPU times by
the same with the slices sampled during the operation, so that they read as
seconds on the reference machine at its usual speed.  The operation's time
varies with the mean speed over its seconds, so the mean (trimmed of
outliers) is the matching statistic; slices taken before the operation
track it much less well than slices taken during it.  A slice's time for
the scale is the CPU time of the thread that runs it, so that waiting for
the GIL, or for a CPU held by the operation's own threads or processes, does
not read as a slow machine.  The wall time spent in slices is taken out of
the process's wall and run times, and their CPU time out of its CPU time,
before scaling.  A slice is shaped like singlim's work: complex
exponentials on small arrays in a Python loop (``ExpPoly.value`` on narrow
samples), step-size control on tiny arrays (the DOP853 oracle), the same on
a wide grid, and 17-digit float formatting (``cli.fmt``).  It runs no
singlim code, so a change to the package cannot move it, and it runs with
the garbage collector off, so the operation's heap cannot move it either.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

import numpy as np

# Median slice time on the reference machine (shared 2-CPU x86_64 Xeon,
# Python 3.11.7, numpy 2.4).  Any constant gives the same comparisons; this
# one makes the scaled timings read as seconds on that machine.
REF_SLICE_S = 0.0055

CALIBRATION_SLICES = 24
SAMPLE_EVERY_S = 0.1
MIN_SAMPLED = 5  # fewer slices during the operation: use the calibration's scale
TRIM = 0.1  # share of slices cut from each end before the mean

_NARROW = np.linspace(0.0, 2.0, 140)
_WIDE = np.linspace(0.0, 20.0, 2200)
_TABLEAU = np.linspace(0.1, 1.0, 24).reshape(12, 2)


def kernel_slice() -> float:
    acc = 0.0
    for i in range(240):
        mu = complex(-1.0 - i % 5, 0.5 * (i % 3))
        z = np.zeros(_NARROW.shape, dtype=complex)
        z += (0.5 + 0.1j) * _NARROW ** (i % 3) * np.exp(mu * _NARROW)
        acc += float(z.real[-1])
    y = np.array([1.0, 0.0])
    h = 0.01
    for i in range(120):
        k = _TABLEAU * y
        y = y + h * k.T.dot(_TABLEAU[:, 0])[:2] * 1e-3
        err = abs(math.sin(h * i) - h) + 1e-12
        h = min(0.5, max(1e-3, 0.9 * h * err ** -0.125))
    for i in range(6):
        z = np.zeros(_WIDE.shape, dtype=complex)
        z += (0.5 - 0.2j) * _WIDE * np.exp(complex(-0.01 * (i + 1), 1.0) * _WIDE)
        acc += float(z.real.sum())
    acc += len(",".join(f"{x:.17g}" for x in z.real[:240]))
    return acc + float(y[0]) + h


def trimmed_mean(values: list[float], cut: float = TRIM) -> float:
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k])


class Sampler:
    """Times kernel slices in this process and keeps their totals.

    ``calibrate`` runs slices back to back; between ``start`` and ``stop``
    a slice runs every ``SAMPLE_EVERY_S`` seconds of wall time, and
    ``during_s`` is the wall time they took, to be taken out of the
    operation's time.  ``calibration_s`` and ``sampled_s`` hold the slices'
    thread CPU times.
    """

    def __init__(self):
        self.calibration_s: list[float] = []
        self.sampled_s: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.during_s = 0.0
        self._running = False

    def _slice(self) -> tuple[float, float]:
        """Run one slice; its wall time and its thread CPU time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel_slice()
            wall = time.perf_counter() - w0
            cpu = time.thread_time() - c0
        finally:
            if enabled:
                gc.enable()
        self.wall_s += wall
        self.cpu_s += cpu
        return wall, cpu

    def calibrate(self, slices: int = CALIBRATION_SLICES):
        for _ in range(slices):
            self.calibration_s.append(self._slice()[1])

    def _tick(self, signum, frame):
        if self._running:
            wall, cpu = self._slice()
            self.sampled_s.append(cpu)
            self.during_s += wall

    def start(self):
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def result(self) -> dict:
        setup_scale = REF_SLICE_S / trimmed_mean(self.calibration_s)
        run_scale = setup_scale
        if len(self.sampled_s) >= MIN_SAMPLED:
            run_scale = REF_SLICE_S / trimmed_mean(self.sampled_s)
        return {
            "calibration_s": self.calibration_s,
            "sampled_s": self.sampled_s,
            "setup_scale": setup_scale,
            "run_scale": run_scale,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "during_s": self.during_s,
        }
