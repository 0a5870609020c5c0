"""Host-speed references: fixed tasks timed next to the benchmark's work.

On a shared host the speed of the machine itself drifts by tens of per
cent from one minute to the next, for fresh processes and for in-process
work alike, and a process's CPU time drifts with its wall time.  So each
run also times two fixed tasks that use only the interpreter and the
standard library, never rankone, interleaved with its own work:

- ``start_ref``: a fresh interpreter that imports the standard-library
  modules rankone itself imports.  It tracks what fresh processes pay
  (set-up, and the CLI calls of ``cli-session``).
- ``compute_ref``: in-process work shaped like the library's: C-speed
  substring scans over a word built by repeated concatenation, and an
  interpreted loop over ints, dicts and Fractions.  It tracks the jobs
  that run inside the measuring process.

``run.py`` divides each time it measures by the matching reference's
time nearby, as a multiple of the reference's nominal time: a time is
reported as it would read on a host where the reference takes its
nominal time.  A change to rankone cannot move the references, so it
moves the reported times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

START_CODE = ("import argparse, bisect, dataclasses, fractions, functools, "
              "itertools, json, math, pathlib, random, threading, typing, "
              "warnings")
# about their medians on a shared two-vCPU virtual machine (Python 3.11.7)
START_NOMINAL_S = 0.090
COMPUTE_NOMINAL_S = 0.015


def start_ref() -> float:
    """Wall time of a fresh interpreter that runs ``START_CODE``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - start


def _word() -> bytes:
    word = b"a"
    for i in range(16):
        word = word + (b"b" if i % 2 else b"cc") + word
    return word


_WORD = _word()  # 175k letters, built once so that the reference allocates little


def compute_ref() -> float:
    """Wall time of a fixed piece of in-process work, with the garbage
    collector off, so that it does not pay for the benchmark's heap."""
    gc.disable()
    try:
        start = perf_counter()
        found = sum(_WORD.count(b"cab") for _ in range(30))
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i % 97] = counts.get(i % 97, 0) + (i * i) % 7
        total = sum(Fraction(1, k) for k in range(1, 60))
        seconds = perf_counter() - start
    finally:
        gc.enable()
    if found == 0 or not counts or total <= 1:
        raise AssertionError("reference task went wrong")
    return seconds


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[n // 2] if n % 2
            else (ordered[n // 2 - 1] + ordered[n // 2]) / 2)


def local_factors(refs, jobs: int, nominal: float, k: int = 5) -> list[float]:
    """For each of ``jobs`` jobs, how much slower than nominal the host ran
    around it: the median of the ``k`` reference samples taken nearest to
    it.  ``refs`` holds (number of jobs before the sample, seconds)."""
    return [_median([s for _, s in sorted(refs, key=lambda r: abs(r[0] - i - 0.5))[:k]])
            / nominal for i in range(jobs)]
