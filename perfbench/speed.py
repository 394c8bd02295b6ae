"""Machine-speed probe.

The reference machine is shared: its speed drifts by 10-25 % over tens of
seconds, for both interpreted Python and vectorized numpy.  The probe times
a fixed piece of work that does not touch worldfunc, half interpreter-bound
(a loop of tiny numpy operations, like the package's scalar paths) and half
array-bound (fifty passes over 4k four-vectors, like its batched paths).  A
run calls it every PROBE_EVERY_S seconds between ops; the timed end-to-end
metrics are scaled by median(probe) / PROBE_REF_S, i.e. reported at the
speed at which the probe takes PROBE_REF_S.

The probe runs in the workload's process, so it must not depend on what the
workload left behind there.  An untimed first pass brings its data back into
cache, and its arrays are small enough that glibc serves them from the heap
whatever mmap threshold the workload's large frees have set."""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.016  # probe median on the reference machine (2 vCPU x86_64), rounded
PROBE_EVERY_S = 0.5

_SMALL = np.arange(12.0).reshape(3, 4)
# 128 kB, and no temporary above 96 kB: below glibc's smallest mmap threshold,
# so no probe allocation maps fresh pages, whatever the workload freed before
_BATCH = np.random.default_rng(0).uniform(-1.0, 1.0, (4_000, 4))


def _batch_pass() -> float:
    y = np.sqrt(np.abs(_BATCH[:, 0] ** 2 - np.sum(_BATCH[:, 1:] ** 2, axis=1)))
    return float(y[0])


def probe() -> float:
    """Seconds the fixed reference work takes now, in this process."""
    acc = _batch_pass()  # untimed: brings the batch back into cache
    t0 = time.perf_counter()
    for i in range(1500):
        d = _SMALL[0] - _SMALL[1]
        acc += 0.5 * (d[0] ** 2 - np.sum(d[1:] ** 2)) + i
    for _ in range(50):
        acc += _batch_pass()
    return time.perf_counter() - t0


def slowdown(samples) -> float:
    """How much slower than the reference the machine ran: median / PROBE_REF_S."""
    return statistics.median(samples) / PROBE_REF_S

