"""Machine-speed probe: puts times from a drifting shared host on one scale.

On the shared 2-vCPU host the benchmark was defined on, the CPU speed seen by
one process swings by up to 1.7x for minutes at a time, while the program does
exactly the same work.  Medians of 40-second runs then spread by 35% between
runs, more than any regression bound can absorb.

The probe is a fixed mix of the three kinds of work icohsim does: dict and
tuple churn, small frozen-dataclass objects hashed into dicts, and small numpy
arrays with a least-squares solve.  It shares no code with icohsim and runs
with the garbage collector off, so it measures the machine, not the program.
Over a 6-minute interleaved run its time tracked the CLI operations' CPU time
through a 1.7x slowdown to within 10% (IQR 4-6% of 30-second windows, against
12-17% unscaled).
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# The probe's usual time on the 2-vCPU Intel Xeon (2.0 GHz) host the benchmark
# was defined on.  Scaled times are seconds at that speed.
PROBE_REFERENCE_S = 0.017

# Start-up probe: a fresh interpreter importing numpy and the stdlib modules
# the CLI uses, and its usual CPU time on the same host.  Interpreter start-up
# (file reads, unmarshalling, mapping extension modules) does not follow the
# in-process probe: scaled by it, fresh-interpreter times spread more than
# unscaled.  Their ratio to this probe, timed just before and after, spread
# 5.5% (IQR over median) against 19% for the raw times.
STARTUP_PROBE_CODE = "import argparse, configparser, json, numpy"
STARTUP_REFERENCE_S = 0.20


@dataclass(frozen=True)
class _Term:
    name: str
    kind: int
    power: int


def _dict_churn() -> float:
    table: dict = {}
    for i in range(8000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + math.sqrt(i)
    return sum(table.values())


def _object_churn() -> float:
    total = 0.0
    for r in range(60):
        terms: dict = {}
        for i in range(40):
            term = _Term(f"m{i % 7}", i % 2, i % 3)
            terms[term] = terms.get(term, 0j) + complex(i, r)
        total += sum(abs(v) for v in terms.values())
    return total


def _small_numpy() -> float:
    x = np.linspace(-1.0, 1.0, 2000)
    total = 0.0
    for i in range(40):
        y = np.exp(-0.5 * x * x) * np.cos(7.0 * x + i)
        design = np.vstack([y, x, y * x]).T
        total += float(np.linalg.lstsq(design, y, rcond=None)[0][0])
    return total


def probe_seconds() -> float:
    """Thread CPU time of one pass over the probe kernels, with the GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _dict_churn()
        _object_churn()
        _small_numpy()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes: list[float]) -> float:
    """Factor that puts times measured among these probes on the reference scale."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def local_scales(probes: list[float]) -> list[float]:
    """Reference-scale factor for each interval between consecutive probes.

    ``probes[i]`` and ``probes[i + 1]`` bracket interval ``i``, and its factor
    uses their mean.  The host's speed swings within seconds, so a wider
    window lags it: over 12 runs of each workload, the median of the nearest
    six probes left the ``oracle-sweep`` tail spread at 16% (IQR over median)
    against 8.5% with the bracketing pair, while every other metric stayed
    at or below 3% either way.
    """
    return [scale(probes[i:i + 2]) for i in range(len(probes) - 1)]
