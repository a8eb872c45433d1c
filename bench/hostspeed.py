"""Host speed reference for the benchmark's timings.

The host this benchmark was built on is a shared virtual machine whose CPUs
switch between two speeds about 2x apart, staying seconds to tens of seconds
in each; each CPU switches on its own.  Raw wall times of whole runs then
differ by a third or more, whatever the run length.  So run.py pins
itself and every process it starts to one CPU, and every timed interval is
bracketed by two samples of a fixed stdlib ``Fraction`` loop on that CPU.
A time is reported scaled to the loop's reference duration:

    scaled = raw * REFERENCE_MS / mean(sample before, sample after)

A change to the library cannot change the loop, so a slower op still shows
in full; only the host's speed is divided out.  Raw times are kept in the
run records.  (A library that started its own busy thread would slow the
samples too, and part of that cost would be divided out.)
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

# Duration of sample_ms() on the reference host in its faster state.
REFERENCE_MS = 5.0


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sample_ms() -> float:
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, 2001):
        total += Fraction(k % 7 + 1, k % 11 + 1)
    return (perf_counter() - t0) * 1000


def scale(raw_s: float, before_ms: float, after_ms: float) -> float:
    return raw_s * 2 * REFERENCE_MS / (before_ms + after_ms)
