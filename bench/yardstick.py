"""The fixed yardstick and the normalisation every timed number goes through.

The host's speed moves by tens of percent within seconds: its two CPUs
share a core, and a neighbour on that core slows pure-Python code by up
to 1.5x in bursts.  A raw wall-clock sample therefore says as much
about the moment it was taken as about the code.  Every timed sample is
bracketed by two samples of ``yard_py`` — a fixed piece of pure Python
that touches no repo code — and reported as

    sample_s * (YARD_REF_S / mean(bracketing yardstick_s)) ** sensitivity

i.e. as seconds on a machine that runs the yardstick in exactly
``YARD_REF_S``.  ``sensitivity`` is the share of the sample that slows
down with the interpreter (the log-log slope of sample time against
yardstick time): 1 for pure-Python work, 0.5 for whole-array kernels
over megabytes, which are half ufunc dispatch and half memory traffic.
It is a calibration constant of each workload (workloads.py), measured
on ten processes per workload while the host was noisy: the exponent
that brought the run-to-run spread of the lower quartile from 10-35%
raw down to 2-6%.

A NumPy yardstick (``yard_np_ms``) is sampled around each warm phase and
recorded as ``bench.yard_np_ms`` so that ledgers from machines of
different memory speed can be told apart; it is not used for scaling —
as a second covariate it never narrowed a spread and usually widened it.

The work in ``yard_py`` is part of the benchmark's definition:
changing it changes every recorded number.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

import numpy as np

#: Seconds ``yard_py`` takes on the reference-speed machine.
YARD_REF_S = 0.030

_PY_ROUNDS = 60
#: Entries and pop pattern are built once: the timed loop allocates
#: nothing, so the sample does not depend on how fragmented the
#: process's heap is (a churning variant ran 30-60% slower inside a
#: child that had just simulated a fabric than in a fresh process).
_PY_ENTRIES = [(float(i * 7919 % 1024), i, None) for i in range(1024)]
_PY_POPS = [bool(i & 1) for i in range(1024)]
_NP_ELEMS = 512 * 1024  # 2 MB of float32 per array
_NP_REPS = 6


def _without_gc(fn):
    def wrapped(*args) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if was_enabled:
                gc.enable()

    wrapped.__doc__ = fn.__doc__
    return wrapped


@_without_gc
def yard_py() -> float:
    """Seconds for 61 440 heap pushes (every second one popped at once,
    the rest drained each round) of 1024 preallocated entries."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    t0 = perf_counter()
    for _ in range(_PY_ROUNDS):
        for entry, pop_now in zip(_PY_ENTRIES, _PY_POPS):
            push(heap, entry)
            if pop_now:
                pop(heap)
        while heap:
            pop(heap)
    return perf_counter() - t0


#: A bracketing sample older than this is taken again.
_STALE_S = 0.25


def normalise(
    sample_s: float, before_s: float, after_s: float, sensitivity: float = 1.0
) -> float:
    """``sample_s`` as seconds on the reference-speed machine."""
    return sample_s * (YARD_REF_S / (0.5 * (before_s + after_s))) ** sensitivity


def low_quartile(samples) -> float:
    """The lower quartile: the statistic of every in-process timing.

    Interference on this host only ever adds time, and does so in
    bursts, so the lower quartiles of repeated runs agree a little
    better than their medians (2.3-6.1% against 2.6-6.0%, and 3.0%
    against 4.0% on the 17 MB fused batches).
    """
    samples = list(samples)
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


@_without_gc
def yard_np_ms(samples: int = 3) -> float:
    """Median milliseconds of a fixed ufunc chain over four 2 MB float32
    arrays (one untimed pass first); for the record, not for scaling."""
    a = np.linspace(1.0, 2.0, _NP_ELEMS, dtype=np.float32)
    b = np.linspace(2.0, 3.0, _NP_ELEMS, dtype=np.float32)
    out, tmp = np.empty_like(a), np.empty_like(a)
    times = []
    for _ in range(samples + 1):
        t0 = perf_counter()
        for _ in range(_NP_REPS):
            np.multiply(a, b, out=tmp)
            np.add(tmp, a, out=out)
            np.subtract(out, b, out=tmp)
            np.multiply(tmp, tmp, out=out)
            np.add(out, b, out=tmp)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times[1:])


class Bracket:
    """Times calls between ``yard_py`` samples.

    ``fresh()`` is the sample before a call (taken again if the last one
    is stale) and ``sample()`` the one after, which doubles as the one
    before the next call: ``n`` back-to-back timed calls cost ``n + 1``
    samples.  A sample is the fastest of ``reps`` yardstick runs.
    """

    def __init__(self, reps: int = 1) -> None:
        self._reps = reps
        self.yard_samples: list[float] = []
        yard_py()  # a process's first call runs a few percent slow
        self.sample()

    def sample(self) -> float:
        self._last = min(yard_py() for _ in range(self._reps))
        self._last_at = perf_counter()
        self.yard_samples.append(self._last)
        return self._last

    def fresh(self) -> float:
        if perf_counter() - self._last_at > _STALE_S:
            self.sample()
        return self._last

    def measure(self, fn, sensitivity: float = 1.0):
        """Run ``fn()``; return ``(result, raw_s, normalised_s)``."""
        before = self.fresh()
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        return result, raw, normalise(raw, before, self.sample(), sensitivity)

    def yard_ms(self) -> float:
        return 1e3 * statistics.median(self.yard_samples)
