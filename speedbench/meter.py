"""Timing in reference seconds.

A ``RefMeter`` times a fixed sequence of operations.  Each operation is one
sample, bracketed by ``begin()`` and ``end(units)``.  Samples fill a
segment; once a segment holds ``period_s`` of wall time the reference
kernel runs and the segment closes.  A segment's scale factor is
``NOMINAL_S`` over the mean of the kernel times around it (the two that
bracket it and one more on each side), so a sample's scaled time is its
wall time as it would read on a core that runs the kernel in exactly
``NOMINAL_S``.  Kernel time is never inside a sample.

The mean, not the median: a shared core can switch between a fast and a
slow state many times a second, and the mean of evenly spread kernel runs
tracks the time-average speed, where the median jumps to whichever state
held for more than half of the runs.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from . import refkernel


@dataclass(frozen=True)
class Sample:
    raw_s: float
    scaled_s: float
    units: int


@dataclass(frozen=True)
class Timing:
    """What one pass measured: its samples and the kernel times around them."""

    samples: tuple[Sample, ...]
    kernel_s: tuple[float, ...]

    @property
    def units(self) -> int:
        return sum(s.units for s in self.samples)

    @property
    def raw_s(self) -> float:
        return sum(s.raw_s for s in self.samples)

    @property
    def scaled_s(self) -> float:
        return sum(s.scaled_s for s in self.samples)

    @property
    def scale(self) -> float:
        """Overall factor from wall to reference seconds."""
        return self.scaled_s / self.raw_s


class RefMeter:
    def __init__(self, period_s: float = 0.05, kernel=refkernel.timed_kernel):
        self.period_s = period_s
        self._kernel = kernel
        self._kernel_s = [kernel()]
        self._pending: list[tuple[float, int, int]] = []  # (raw, units, segment)
        self._segment_raw = 0.0
        self._t0: float | None = None

    def begin(self) -> None:
        self._t0 = time.perf_counter()

    def end(self, units: int = 1) -> None:
        """Close the current sample."""
        dt = time.perf_counter() - self._t0
        self._t0 = None
        self._pending.append((dt, units, len(self._kernel_s) - 1))
        self._segment_raw += dt
        if self._segment_raw >= self.period_s:
            self._close_segment()

    def checkpoint(self) -> None:
        """Close the current sample without finishing a unit and go on
        timing; lets the kernel run inside one long operation."""
        self.end(0)
        self.begin()

    def cut(self) -> None:
        """Close the current segment now, if it holds any time."""
        if self._segment_raw > 0:
            self._close_segment()

    @property
    def sample_count(self) -> int:
        return len(self._pending)

    def _close_segment(self) -> None:
        self._kernel_s.append(self._kernel())
        self._segment_raw = 0.0

    def finish(self) -> Timing:
        self.cut()
        if len(self._kernel_s) == 1:
            self._close_segment()
        ks = self._kernel_s
        samples = []
        for raw, units, seg in self._pending:
            # segment seg lies between kernel runs seg and seg + 1
            window = ks[max(0, seg - 1): seg + 3]
            scale = refkernel.NOMINAL_S / statistics.fmean(window)
            samples.append(Sample(raw, raw * scale, units))
        return Timing(tuple(samples), tuple(ks))


def time_calls(fn, reps: int) -> tuple[list[float], list[float], object]:
    """Run ``fn(meter)`` ``reps`` times, each from a freshly collected heap,
    with a kernel run between runs.  ``fn`` may call ``meter.checkpoint()``
    so that the kernel also runs inside a long call.

    Returns (scaled seconds of each run, raw seconds of each run, the last
    result).
    """
    meter = RefMeter()
    bounds = []
    result = None
    for _ in range(reps):
        result = None
        gc.collect()
        first = meter.sample_count
        meter.begin()
        result = fn(meter)
        meter.end(0)
        meter.cut()
        bounds.append((first, meter.sample_count))
    samples = meter.finish().samples
    return (
        [sum(s.scaled_s for s in samples[a:b]) for a, b in bounds],
        [sum(s.raw_s for s in samples[a:b]) for a, b in bounds],
        result,
    )


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread measure the benchmark is judged by."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p a multiple of 10) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=10)[p // 10 - 1]
