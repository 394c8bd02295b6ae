"""Tests of the benchmark's own arithmetic on synthetic inputs."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import peak_bytes
from perfbench.run import timed_call
from perfbench.stats import (
    Tally,
    correct,
    module_calls,
    percentile,
    samples_beyond,
    self_times,
    spread,
    tail_percentile,
)
from perfbench.tracer import Tracer, sigma_pairs
from perfbench.workloads import WORKLOADS, chain_failures

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# percentiles and the tail choice
# ---------------------------------------------------------------------------

def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(0)
    xs = list(rng.exponential(size=137))
    for p in (0.0, 12.5, 50.0, 90.0, 98.2, 100.0):
        assert percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)), rel=1e-12)


@pytest.mark.parametrize("n,expected", [(20, 50.0), (21, 52.3), (27, 62.9), (100, 90.0),
                                        (36, 72.2), (560, 98.2), (1000, 99.0),
                                        (20000, 99.9)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    assert samples_beyond(n, p) >= 10
    if p < 99.9:
        assert samples_beyond(n, round(p + 0.1, 1)) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_samples_beyond_counts_order_statistics_above_rank():
    # 1..100: the 90th percentile sits at rank 90, ten values lie beyond it
    assert samples_beyond(100, 90.0) == 10
    xs = list(range(1, 101))
    assert sum(x > percentile(xs, 90.0) for x in xs) == 10


def test_every_workload_guarantees_its_tail():
    for w in WORKLOADS.values():
        assert samples_beyond(w.min_calls, w.tail_pct) >= 10
        assert w.tail_pct >= 50.0


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive): q1 = 2.75, q2 = 5.5, q3 = 8.25
    assert spread(vals) == pytest.approx((8.25 - 2.75) / 5.5)


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------

def test_tally_counts_failed_ops_against_attempted():
    t = Tally()
    t.add(1000, {"nonfinite": 12, "drift": 787})
    t.add(1000, {})
    t.add(1, {"exit_2": 1})
    assert (t.attempted, t.failed, t.defective) == (2001, 800, 0)
    assert t.reasons == {"nonfinite": 12, "drift": 787, "exit_2": 1}
    assert t.ok_frac == pytest.approx(1201 / 2001)


def test_tally_counts_known_defects_apart_from_failures():
    t = Tally(frozenset({"nonfinite", "drift"}))
    t.add(1000, {"nonfinite": 12, "drift": 787})
    t.add(1, {"exit_2": 1})
    assert (t.attempted, t.failed, t.defective) == (1001, 1, 799)
    assert t.ok_frac == pytest.approx(201 / 1001)
    total = Tally()
    total.merge(t)
    total.merge(t)
    assert (total.attempted, total.failed, total.defective) == (2002, 2, 1598)
    assert total.reasons["drift"] == 2 * 787


def test_tally_rejects_more_failures_than_ops():
    with pytest.raises(ValueError):
        Tally().add(2, {"a": 2, "b": 1})


def test_chain_failures_split_nonfinite_from_drift():
    drift = np.array([np.nan, 1e-13, 1e-11, np.inf, 1e-12, 0.0])
    assert chain_failures(drift) == {"nonfinite": 2, "drift": 1}
    points = np.zeros((6, 3, 4))
    points[1, 2, 0] = np.nan  # chain 1 has a finite drift but a NaN point
    assert chain_failures(drift, points) == {"nonfinite": 3, "drift": 1}


def test_timed_call_fails_every_op_of_a_raising_call():
    def boom():
        raise ArithmeticError("x")

    _, failures = timed_call(1000, boom, lambda r: {})
    assert failures == {"raised_ArithmeticError": 1000}
    _, failures = timed_call(3, lambda: None, lambda r: r["missing"])
    assert failures == {"check_TypeError": 3}
    dt, failures = timed_call(1, lambda: 5, lambda r: {} if r == 5 else {"wrong": 1})
    assert failures == {} and dt >= 0.0


def _tally(workload, *calls):
    t = Tally(WORKLOADS[workload].known_failures)
    for attempted, failures in calls:
        t.add(attempted, failures)
    return t


def test_solve_is_correct_only_without_failures():
    assert correct(_tally("solve", (560, {})))
    assert not correct(_tally("solve", (559, {}), (1, {"residual_above_tol": 1})))
    assert not correct(_tally("solve", (1, {"raised_LinAlgError": 1})))


def test_chain_is_correct_with_its_known_defect_only():
    t = _tally("chain", (1000, {"nonfinite": 12, "drift": 787}))
    assert correct(t) and t.failed == 0 and t.defective == 799
    assert not correct(t, stable=False)
    # a whole ensemble that raises skips its check, but not the verdict
    _, failures = timed_call(1000, lambda: 1 / 0, lambda r: {})
    t = _tally("chain", (1000, {"drift": 787}), (1000, failures))
    assert not correct(t) and t.failed == 1000
    assert not correct(_tally("chain", (1000, {"check_KeyError": 1000})))


def test_cli_is_correct_with_the_chain_manifest_defect_only():
    assert correct(_tally("cli", (8, {}), (1, {"chain.manifest_not_strict_json": 1})))
    for reason in ("chain.exit_2", "sigma.manifest_not_strict_json", "tube.output_changed",
                   "eqv_check.equivalent_not_True", "raised_ValueError"):
        assert not correct(_tally("cli", (8, {}), (1, {reason: 1})))
    assert not correct(_tally("cli", (9, {})), stable=False)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    """geometry.leaf (2 s) called by equivalence.mid (1 s + leaf + 3 s)."""
    geometry = types.ModuleType("worldfunc.geometry")
    equivalence = types.ModuleType("worldfunc.equivalence")

    def leaf():
        clock.now += 2.0

    leaf.__module__ = "worldfunc.geometry"
    geometry.leaf = leaf
    equivalence.leaf = leaf  # cross-module binding, as `from .geometry import leaf`

    def mid():
        clock.now += 1.0
        equivalence.leaf()
        clock.now += 3.0
        return "done"

    mid.__module__ = "worldfunc.equivalence"
    equivalence.mid = mid
    return geometry, equivalence


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    geometry, equivalence = _fake_package(clock)
    mid = equivalence.mid
    tracer = Tracer(clock=clock)
    tracer.install([equivalence], [(equivalence, "mid")])
    assert equivalence.mid() == "done"
    assert equivalence.mid() == "done"
    rec = tracer.records[("bench", "equivalence.mid")]
    assert (rec.calls, rec.total, rec.child) == (2, 12.0, 4.0)
    assert self_times(tracer.records) == {"equivalence": 8.0, "geometry": 4.0}
    assert module_calls(tracer.records) == {"equivalence": 2, "geometry": 2}
    tracer.uninstall()
    assert equivalence.leaf is geometry.leaf
    assert equivalence.mid is mid


def test_self_time_survives_a_raising_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def bad():
        clock.now += 5.0
        raise ValueError("no")

    def outer():
        clock.now += 1.0
        try:
            wrapped_bad()
        except ValueError:
            pass

    bad.__module__ = "worldfunc.geometry"
    outer.__module__ = "worldfunc.cli"
    wrapped_bad = tracer.wrap("cli", bad)
    tracer.wrap("bench", outer)()
    assert self_times(tracer.records) == {"cli": 1.0, "geometry": 5.0}


def test_sigma_pairs_counts_the_broadcast_batch():
    g = object()
    assert sigma_pairs((g, (0, 0, 0), (1, 1, 1)), {}) == 1
    assert sigma_pairs((g, np.zeros((3, 1, 4)), np.zeros((7, 4))), {}) == 21
    assert sigma_pairs((g,), {"p": np.zeros((5, 4)), "q": np.zeros(4)}) == 5


def test_peak_bytes_counts_numpy_buffers():
    assert 8000 <= peak_bytes(lambda: np.zeros(1000)) < 16000


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_workload_why_states_the_tail_percentile():
    spec = json.loads(BENCHMARK.read_text())
    for w in spec["workloads"]:
        cls = WORKLOADS[w["name"]]
        assert f"p{cls.tail_pct}, >={cls.min_calls} calls" in w["why"]
