"""Pure arithmetic of the benchmark: percentiles, tail choice, failure tallies,
self time and run-to-run spread.  No numpy, no worldfunc: the unit tests
exercise these on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it


def percentile(values, p: float) -> float:
    """p-th percentile (0..100) with linear interpolation between order
    statistics, the same rule as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Number of the n order statistics that lie strictly above rank n*p/100."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest percentile, in steps of 0.1, that still has at least
    ``min_beyond`` of n samples beyond it.  Needs n >= 2 * min_beyond, so that
    the tail is never below the median."""
    if n < 2 * min_beyond:
        raise ValueError(f"{n} samples cannot carry a tail with {min_beyond} beyond it")
    tenths = 999
    while samples_beyond(n, tenths / 10.0) < min_beyond:
        tenths -= 1
    return tenths / 10.0


def spread(values) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


@dataclass
class Tally:
    """Attempted ops, with a count per failure reason.  ``known`` names the
    reasons that are today's known defects: ops failing for one of them are
    counted as ``defective``, every other failing op as ``failed``."""

    known: frozenset = frozenset()
    attempted: int = 0
    failed: int = 0
    defective: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, attempted: int, failures: dict | None = None) -> None:
        """Record a call that attempted ``attempted`` ops; ``failures`` maps a
        reason to the number of those ops that failed for it.  An op that fails
        for several reasons is listed under the first and counted once."""
        failures = {k: v for k, v in (failures or {}).items() if v}
        n_failed = sum(failures.values())
        if n_failed > attempted:
            raise ValueError(f"{n_failed} failures among {attempted} attempted ops")
        n_known = sum(v for k, v in failures.items() if k in self.known)
        self.attempted += attempted
        self.failed += n_failed - n_known
        self.defective += n_known
        self.reasons.update(failures)

    def merge(self, other: "Tally") -> None:
        """Add another tally's counts, classified by that tally's ``known``."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.defective += other.defective
        self.reasons.update(other.reasons)

    @property
    def ok_frac(self) -> float:
        """Share of attempted ops that passed every check, known defects included."""
        bad = self.failed + self.defective
        return 1.0 - bad / self.attempted if self.attempted else 1.0


def correct(tally: Tally, stable: bool = True) -> bool:
    """A run is correct when no op failed beyond the known defects and the
    outputs that must repeat between rounds did.  A raising call, a nonzero
    exit code or a failed check of any other kind makes it wrong."""
    return stable and tally.failed == 0


def self_times(records) -> dict:
    """Self seconds per callee module from aggregated span records.

    ``records`` maps (caller, callee) to a record with ``total`` (seconds in
    the spans) and ``child`` (seconds those spans spent in child spans);
    callee names are ``module.function``.  Self time is total minus child.
    """
    out: dict = {}
    for (_caller, callee), rec in records.items():
        module = callee.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + rec.total - rec.child
    return out


def module_calls(records) -> dict:
    """Calls into each callee module."""
    out: dict = {}
    for (_caller, callee), rec in records.items():
        module = callee.split(".", 1)[0]
        out[module] = out.get(module, 0) + rec.calls
    return out
