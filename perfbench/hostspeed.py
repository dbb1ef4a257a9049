"""Host-speed reference for normalizing timings on a shared machine.

On a host whose CPU is shared with other tenants, the speed of pure-Python
work changes by up to ~1.8x from one ten-second stretch to the next, for
reasons outside this program.  A fixed reference kernel, timed right before
and right after each measured operation, slows down by the same factor (on
the machine the benchmark was defined on, the operation/kernel ratio of a
dim-27 exact product varied 2-3% between 5- to 20-second windows while
either time alone varied 11-18%).

A normalized time is the measured time scaled by ``REF_S / k``, where ``k``
is the kernel's time around the measurement: the time the operation would
take on a host where the kernel takes ``REF_S``.  The kernel does the same
kind of work as the package (rational arithmetic, dict and tuple traffic)
and does not import it, so no change to the package moves it.

Kernel samples around a cold interpreter start do not track its time, which
is mostly start-up work, so ``run.py`` scales set-up times by the run's mean
factor instead, and reports the CLI layer's cold calls raw.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the kernel's time on an unloaded core of the machine the benchmark
# was defined on (2-vCPU x86-64 VM, Python 3.11.7); only ratios matter
REF_S = 0.002


def kernel() -> int:
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3 * k + 1)
    table = {}
    for k in range(1500):
        table[(k, k % 7)] = k * k
    return acc.numerator.bit_length() + len(table)


def sample(runs: int) -> float:
    """Median seconds of ``runs`` kernel calls."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two kernel samples."""
    return REF_S / (0.5 * (before + after))
