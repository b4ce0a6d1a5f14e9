"""Reference kernels: the machine's speed at the moment of an iteration.

A shared machine runs the same code up to twice as slowly for stretches of
seconds to minutes, so raw seconds of one run say as much about the machine
as about the program.  Each benchmark iteration therefore times these fixed
kernels in its own process right before and right after the workload, and
``perfbench/run.py`` divides the iteration's times by that reference time.

The kernels are the benchmark's own code, so a change to ``motzkinlab``
leaves them alone.  They mirror the work the workloads do: a big-integer
recurrence (sequence tables), an integer convolution (``Poly`` products), a
``Fraction`` sum (the checkers) and a dict loop (interpreter overhead).
Each takes 0.1 to 0.4 ms on a 2.1 GHz Xeon core.

    python3 perfbench/reference.py    # prints the reference time in seconds
"""
from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# Timings are reported as seconds on a machine whose reference time is REF_S;
# a 2-core 2.1 GHz Xeon VM (Python 3.11.7) measured 0.8 to 1.2 ms.
REF_S = 0.001

_X = [(i * 7919) % 23 - 11 for i in range(40)]
_Y = [(i * 104729) % 19 - 9 for i in range(40)]


def _bigint() -> int:
    a, b = 1, 1
    for n in range(2, 600):
        a, b = b, ((2 * n + 1) * b + 3 * (n - 1) * a) // (n + 2)
    return b


def _convolution() -> list[int]:
    out = [0] * (len(_X) + len(_Y) - 1)
    for i, x in enumerate(_X):
        for j, y in enumerate(_Y):
            out[i + j] += x * y
    return out


def _fraction() -> Fraction:
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(k * k + 1, k + 3)
    return s


def _dict_loop() -> dict:
    d: dict[int, int] = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    return d


KERNELS = (_bigint, _convolution, _fraction, _dict_loop)


def reference_s(reps: int = 8) -> float:
    """Sum over the kernels of each kernel's median seconds over ``reps`` calls."""
    clock = time.perf_counter
    total = 0.0
    for kernel in KERNELS:
        samples = []
        for _ in range(reps):
            t0 = clock()
            kernel()
            samples.append(clock() - t0)
        total += statistics.median(samples)
    return total


def worker_reference() -> tuple[int, float, float, float]:
    """Pool task: (pid, CPU seconds at start, reference seconds, CPU seconds
    at end) of the worker that ran it."""
    cpu0 = time.process_time()
    ref = reference_s()
    return os.getpid(), cpu0, ref, time.process_time()


if __name__ == "__main__":
    print(reference_s(200))
