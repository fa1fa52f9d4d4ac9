"""Host-speed reference for timings on shared hardware.

On a shared machine the speed of a core changes with what its neighbours
run: in one minute on a 2-vCPU host the same tracking work took anywhere
from 0.8 s to 1.6 s. A run of tens of seconds cannot average that out, so
timings are also given at a reference speed.

While a ``Timer`` is open, SIGALRM fires every ``PERIOD_S`` seconds in this
process (no thread, no other process) and runs ``kernel()``, a fixed mix of
small numpy algebra and Python float and object work, written here so that
no change to coopmot can change it. A timer reports its raw seconds (the
kernel's own time taken out) and those seconds rescaled by
``REFERENCE_KERNEL_S / mean kernel time`` over the same interval.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# Roughly kernel()'s time on the 2-vCPU host the baseline was measured on,
# so that reference seconds read close to raw seconds there. Any constant
# works: a metric is only ever compared with its own earlier values.
REFERENCE_KERNEL_S = 6.0e-4

_F = np.eye(10) + 0.01 * np.random.default_rng(1).random((10, 10))
_P = np.eye(10)


@dataclass(frozen=True)
class _Box:
    state: np.ndarray
    score: float


def kernel():
    """A fixed piece of work shaped like the tracker's: ~0.4 ms."""
    p = _P
    for _ in range(15):
        p = _F @ p @ _F.T + 0.01 * _P
        p = 0.5 * (p + p.T)
    pts = [(math.cos(k * 0.7) * 3.0, math.sin(k * 0.7) * 2.0) for k in range(8)]
    area = 0.0
    for _ in range(12):
        out = []
        for i, (x0, y0) in enumerate(pts):
            x1, y1 = pts[(i + 1) % len(pts)]
            out.append(((x0 + x1) * 0.5, (y0 + y1) * 0.5))
            area += x0 * y1 - x1 * y0
        pts = (out + pts[:2])[:8]
    box = _Box(np.zeros(10), 0.0)
    for _ in range(20):
        box = replace(box, state=box.state + 1.0, score=box.score + 1.0)
        np.stack([box.state, box.state]).sum()
    return area + float(p[0, 0])


def kernel_seconds(n=50):
    """Median time of n back-to-back kernel runs."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the kernel on a timer while a Timer is open; use as a context
    manager around the timed part of a run."""

    def __init__(self):
        self.samples = []
        self.kernel_s = 0.0
        self._old = None

    def _probe(self, *_):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.kernel_s += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timer(self):
        return Timer(self)


class Timer:
    """Times one segment: ``raw`` seconds and ``ref`` reference seconds."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.raw = self.ref = 0.0

    def __enter__(self):
        s = self.sampler
        self._n0, self._k0 = len(s.samples), s.kernel_s
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        s = self.sampler
        self.raw = elapsed - (s.kernel_s - self._k0)
        s._probe()  # every segment gets at least one sample
        self.ref = self.raw * REFERENCE_KERNEL_S / statistics.mean(s.samples[self._n0:])
