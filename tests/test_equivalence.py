"""Equivalence relation, the solution-set solver, spacelike family,
intransitivity, collinearity, segments and tube sampling."""

import contextlib
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

import worldfunc as wf
from worldfunc import DeformationFunction, Geometry, GeomVector, SolverConfig, TubeSamplerConfig
import worldfunc.equivalence as eqv
from worldfunc.equivalence import _WITNESS_BLOCK
from test_geometry import COORD_CLASSES, _sigma_gradient, _slope


MINK = Geometry.minkowski()
EUCLID3 = Geometry.euclidean(3)
ORIGIN4 = (0, 0, 0, 0)


def mdot(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return x[0] * y[0] - float(x[1:] @ y[1:])


# ---------------------------------------------------------------------------
# is_equivalent
# ---------------------------------------------------------------------------

EVERY_KIND = [EUCLID3, MINK, Geometry.discrete(0.01), Geometry.grainy(0.01, 0.03),
              Geometry.deformed(DeformationFunction.from_table([[-5, -5.5], [0, 0], [5, 5.5]]))]
_NULL = np.array([3.0, 2.0, -2.0, 1.0]) / 8.0  # exactly null on the dyadic grid


def _draw_vector(data, g):
    """A random vector, or on the Minkowski substrate sometimes an exactly null one."""
    coord = st.floats(-3.0, 3.0) | st.integers(-24, 24).map(lambda k: k / 8.0)
    o, e = (np.array(data.draw(st.lists(coord, min_size=g.dim, max_size=g.dim)))
            for _ in range(2))
    if g.has_minkowski_substrate and data.draw(st.booleans()):
        o = np.round(o * 8.0) / 8.0
        e = o + _NULL
    return GeomVector(o, e)


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_equivalent_is_reflexive_with_exact_zero_residuals(g, data):
    a = _draw_vector(data, g)
    rep = wf.is_equivalent(g, a, a)
    assert rep.equivalent
    assert rep.residual_parallel == 0.0 and rep.residual_length == 0.0


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_equivalent_is_symmetric_bitwise(g, data):
    a, b = _draw_vector(data, g), _draw_vector(data, g)
    ab, ba = wf.is_equivalent(g, a, b), wf.is_equivalent(g, b, a)
    assert ab.equivalent == ba.equivalent
    assert np.float64(ab.residual_parallel).tobytes() == np.float64(ba.residual_parallel).tobytes()
    assert ab.residual_length == -ba.residual_length  # x - y = -(y - x) exactly; 0.0 == -0.0
    assert ab.scale == ba.scale


def test_identical_vectors_have_exact_zero_residuals():
    a = GeomVector((0.3, -1, 2, 0.5), (1, 0.2, -0.7, 2))
    rep = wf.is_equivalent(MINK, a, GeomVector(a.origin, a.end))
    assert rep.equivalent
    assert rep.residual_parallel == 0.0 and rep.residual_length == 0.0


def test_euclidean_translation_is_equivalent():
    a = GeomVector((0, 0, 0), (1, 0, 0))
    b = GeomVector((5, 5, 5), (6, 5, 5))
    assert wf.is_equivalent(EUCLID3, a, b).equivalent


def test_minkowski_family_member_is_equivalent():
    a = GeomVector(ORIGIN4, (0.7, 1, 0, 0.7))
    b = GeomVector(ORIGIN4, (0, 1, 0, 0))
    rep = wf.is_equivalent(MINK, a, b)
    assert rep.equivalent
    assert abs(rep.residual_parallel) < 1e-12 and abs(rep.residual_length) < 1e-12
    # oracle: the connecting displacement is null and orthogonal to b
    alpha = a.displacement - b.displacement
    assert mdot(alpha, alpha) == pytest.approx(0.0, abs=1e-15)
    assert mdot(b.displacement, alpha) == pytest.approx(0.0, abs=1e-15)


def test_reflexivity_exact_over_random_vectors():
    rng = np.random.default_rng(10)
    for g in (EUCLID3, MINK, Geometry.discrete(0.01), Geometry.grainy(0.02, 0.05)):
        for _ in range(100):
            a = GeomVector(rng.uniform(-3, 3, g.dim), rng.uniform(-3, 3, g.dim))
            rep = wf.is_equivalent(g, a, a)
            assert rep.equivalent
            assert rep.residual_parallel == 0.0 and rep.residual_length == 0.0


def test_symmetry():
    rng = np.random.default_rng(11)
    for g in (EUCLID3, MINK, Geometry.discrete(0.01)):
        for _ in range(100):
            a = GeomVector(rng.uniform(-3, 3, g.dim), rng.uniform(-3, 3, g.dim))
            b = GeomVector(rng.uniform(-3, 3, g.dim), rng.uniform(-3, 3, g.dim))
            r_ab = wf.is_equivalent(g, a, b)
            r_ba = wf.is_equivalent(g, b, a)
            assert r_ab.equivalent == r_ba.equivalent
            assert r_ab.residual_parallel == r_ba.residual_parallel
            assert r_ab.residual_length == -r_ba.residual_length


# ---------------------------------------------------------------------------
# solve_equivalent
# ---------------------------------------------------------------------------

def test_solve_euclidean_translation_example():
    sol = wf.solve_equivalent(EUCLID3, (0, 0, 0), (1, 0, 0), (2, 3, 4),
                              SolverConfig(starts=8, seed=0))
    assert sol.variance == "single"
    assert sol.manifold_dim_estimate == 0
    assert np.abs(sol.representatives[0] - np.array([3.0, 3.0, 4.0])).max() < 1e-6


def test_solve_euclidean_random_single_variance():
    rng = np.random.default_rng(12)
    for k in range(50):
        p0, p1, q0 = rng.uniform(-3, 3, (3, 3))
        sol = wf.solve_equivalent(EUCLID3, p0, p1, q0, SolverConfig(starts=4, seed=k))
        assert sol.variance == "single"
        assert np.linalg.norm(sol.representatives[0] - (q0 + p1 - p0)) < 1e-6


def test_solve_minkowski_timelike_unique():
    sol = wf.solve_equivalent(MINK, ORIGIN4, (1, 0, 0, 0), ORIGIN4,
                              SolverConfig(starts=32, seed=0))
    assert sol.variance == "single"
    assert len(sol.representatives) == 1
    assert np.abs(sol.representatives[0] - np.array([1.0, 0, 0, 0])).max() < 1e-9


def test_solve_minkowski_spacelike_multivariant():
    # one piece, the 2-dimensional family x = (alpha, 1, alpha cos t, alpha sin t),
    # represented by a smooth point of it, off the apex x = p1 (alpha = 0)
    sol = wf.solve_equivalent(MINK, ORIGIN4, (0, 1, 0, 0), ORIGIN4,
                              SolverConfig(starts=64, seed=0))
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)
    assert len(sol.representatives) == sol.diagnostics.cells_nonempty == 1
    assert sol.diagnostics.jacobian_rank == 2
    [r] = sol.representatives
    assert abs(r[1] - 1.0) < 1e-12 and abs(r[0] ** 2 - r[2] ** 2 - r[3] ** 2) < 1e-12
    assert r[0] != 0.0
    # its turns about the x axis are three mutually non-equivalent members
    members = [GeomVector(ORIGIN4, (r[0], 1.0, r[0] * math.cos(t), r[0] * math.sin(t)))
               for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    y = GeomVector(ORIGIN4, (0, 1, 0, 0))
    assert all(wf.is_equivalent(MINK, v, y).equivalent for v in members)
    assert not any(wf.is_equivalent(MINK, v, w).equivalent
                   for v, w in itertools.combinations(members, 2))


def test_solve_spacelike_brute_force_grid_oracle():
    # dense grid over (alpha, axis angle): every family point passes the
    # equivalence residuals; solver representatives approach grid points
    y = GeomVector(ORIGIN4, (0, 1, 0, 0))
    alphas = np.linspace(-2, 2, 21)
    angles = np.linspace(0, 2 * math.pi, 25, endpoint=False)
    for alpha in alphas:
        for t in angles:
            x = GeomVector(ORIGIN4, (alpha, 1.0, alpha * math.cos(t), alpha * math.sin(t)))
            rep = wf.is_equivalent(MINK, x, y)
            assert abs(rep.residual_parallel) < 1e-12
            assert abs(rep.residual_length) < 1e-12


def test_solve_multivariant_in_continuous_deformation():
    # grainy deformation is continuous, so the solver can chase the deformed
    # spacelike solution manifold directly
    g = Geometry.grainy(0.02, 0.5)
    sol = wf.solve_equivalent(g, ORIGIN4, (0, 1, 0, 0), ORIGIN4,
                              SolverConfig(starts=48, seed=2))
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)
    assert len(sol.representatives) == 1 and sol.diagnostics.jacobian_rank == 2
    for x, (r_par, r_len) in zip(sol.representatives, sol.residuals):
        assert abs(r_par) <= 1e-9 and abs(r_len) <= 1e-9


def test_solve_zero_variance_reported_not_raised():
    # the empty set is an outcome, not a failure: no slope cell of this
    # discrete F holds a piece
    g = Geometry.discrete(0.25)
    sol = wf.solve_equivalent(g, (-1, 0.5, -0.75, 0), (1, 1, -0.5, -1), (0, 0.75, 0.25, -1),
                              SolverConfig(starts=4, max_iter=0, seed=0))
    assert sol.variance == "zero"
    assert sol.representatives == [] and sol.residuals == []
    d = sol.diagnostics
    assert (d.starts_attempted, d.cells_nonempty, d.cells_examined) == (0, 0, 4)


def test_solver_deterministic_for_fixed_seed():
    cfg = SolverConfig(starts=32, seed=21)
    a = wf.solve_equivalent(MINK, ORIGIN4, (0, 1, 0, 0), ORIGIN4, cfg)
    b = wf.solve_equivalent(MINK, ORIGIN4, (0, 1, 0, 0), ORIGIN4, cfg)
    assert len(a.representatives) == len(b.representatives)
    for x, y in zip(a.representatives, b.representatives):
        assert np.array_equal(x, y)
    assert a.manifold_dim_estimate == b.manifold_dim_estimate


def test_tube_deterministic_for_fixed_seed():
    g = Geometry.discrete(0.02)
    cfg = TubeSamplerConfig(stations=9, directions=4, seed=5)
    t1 = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0), cfg)
    t2 = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0), cfg)
    assert np.array_equal(t1.radii, t2.radii, equal_nan=True)
    assert np.array_equal(t1.points, t2.points)


def test_solve_minkowski_near_cone_timelike_is_single():
    # reverse Cauchy-Schwarz: the timelike solution is unique however close to the cone
    sol = wf.solve_equivalent(MINK, ORIGIN4, (1.001, 1, 0, 0), ORIGIN4, SolverConfig(seed=0))
    assert (sol.variance, sol.manifold_dim_estimate) == ("single", 0)
    # at q0 = p0 the equivalent is p1 itself, exactly
    assert np.array_equal(sol.representatives, [[1.001, 1, 0, 0]])


def test_solve_spacelike_single_start_sees_the_family():
    # the translation guess alone is a point of the 2-dimensional spacelike family
    sol = wf.solve_equivalent(MINK, ORIGIN4, (0, 1, 0, 0), ORIGIN4, SolverConfig(starts=1))
    assert len(sol.representatives) == 1
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)


def _near_cone_input(rng):
    # the solve benchmark's near-cone class: |dt| within 1e-3 of |dx|
    p0, q0 = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
    v = rng.normal(size=3)
    r = rng.uniform(0.3, 1.5)
    dt = r * (1.0 + rng.uniform(-1e-3, 1e-3)) * rng.choice([-1.0, 1.0])
    return p0, p0 + np.concatenate([[dt], r * v / np.linalg.norm(v)]), q0


def test_solve_near_cone_timelike_draws_are_single():
    rng = np.random.default_rng(123)
    variances, k = [], 0
    while len(variances) < 40:
        p0, p1, q0 = _near_cone_input(rng)
        if mdot(p1 - p0, p1 - p0) > 0:
            sol = wf.solve_equivalent(MINK, p0, p1, q0, SolverConfig(starts=64, seed=k))
            variances.append(sol.variance)
        k += 1
    assert variances.count("single") == 40


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 7))
def test_euclidean_solve_is_the_translation_in_closed_form(data, dim):
    p0, p1, q0 = (np.array(data.draw(st.lists(COORD_CLASSES, min_size=dim, max_size=dim)))
                  for _ in range(3))
    if not np.array_equal(p0, p1):
        _assert_closed_form(Geometry.euclidean(dim), p0, p1, q0)


def _assert_closed_form(g, p0, p1, q0):
    """|Y|^2 = <Y, u> = |u|^2 forces Y = u: the translation is the one solution,
    returned, exactly when it passes the pairwise test at tol, with one
    residual row whose sigma terms are Python-float sums below 8 coordinates
    and one stacked sigma call from 8 up."""
    X = q0 + (p1 - p0)
    rep = wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, X))
    passes = (max(abs(rep.residual_parallel), abs(rep.residual_length))
              <= 1e-9 * max(1.0, abs(2.0 * wf.sigma(g, p0, p1))))
    with pytest.MonkeyPatch.context() as mp:
        sigma_calls, rows = _spy_on_the_residual_row(mp)
        if not passes:
            with pytest.raises(wf.SolverFailureError, match="translation"):
                wf.solve_equivalent(g, p0, p1, q0)
            return False
        sol = wf.solve_equivalent(g, p0, p1, q0)
    assert sigma_calls == ([] if g.dim < 8 else [(6, g.dim)]) and len(rows) == 1
    assert (sol.variance, sol.manifold_dim_estimate) == ("single", 0)
    assert len(sol.representatives) == 1
    assert sol.representatives[0].tobytes() == X.tobytes()
    assert np.array(sol.residuals).tobytes() == np.array([[rep.residual_parallel,
                                                          rep.residual_length]]).tobytes()
    return True


def _spy_on_the_residual_row(mp):
    """Record the broadcast shape of each sigma call of a solve and each row
    ``_residual_row`` returns; mp is a pytest MonkeyPatch."""
    sigma_calls, rows = [], []
    sigma, residual_row = eqv.sigma, eqv._residual_row

    def sigma_spy(g, p, q):
        sigma_calls.append(np.broadcast_shapes(np.shape(p), np.shape(q)))
        return sigma(g, p, q)

    def row_spy(*terms):
        rows.append(residual_row(*terms))
        return rows[-1]

    mp.setattr(eqv, "sigma", sigma_spy)
    mp.setattr(eqv, "_residual_row", row_spy)
    return sigma_calls, rows


@pytest.mark.parametrize("dim", [8, 9, 16, 40])
def test_euclidean_solve_is_the_translation_past_the_unrolled_reduction(dim):
    # numpy's add.reduce unrolls by 8: the stacked sigma call's rows still
    # round as is_equivalent's scalar calls do
    g = Geometry.euclidean(dim)
    rng = np.random.default_rng(dim)
    for _ in range(50):
        p0, p1, q0 = rng.uniform(-3, 3, (3, dim))
        assert _assert_closed_form(g, p0, p1, q0)
    for _ in range(50):  # far origins, short P0P1: some refused, as the pairwise test says
        p0, q0 = rng.uniform(-1e3, 1e3, (2, dim))
        _assert_closed_form(g, p0, p0 + rng.uniform(-0.1, 0.1, dim), q0)


def test_euclidean_solve_makes_one_residual_row_and_a_sigma_call_only_from_dim_8(monkeypatch):
    calls, rows = _spy_on_the_residual_row(monkeypatch)
    sol = wf.solve_equivalent(EUCLID3, (0.1, 0.2, 0.3), (1.7, -0.4, 2.2), (2.3, 0.1, -0.9))
    assert sol.variance == "single"
    assert calls == []  # the six sigma terms are sums in Python floats
    assert sol.residuals == [tuple(rows[0])]  # one row, of floats
    p0, p1, q0 = np.random.default_rng(8).uniform(-3, 3, (3, 8))
    sol = wf.solve_equivalent(Geometry.euclidean(8), p0, p1, q0)
    assert calls == [(6, 8)]  # the six pairs of p0, p1, q0 and the translation
    assert len(rows) == 2 and sol.residuals == [tuple(rows[1])]


@pytest.mark.parametrize("p0, p1, q0", [
    ((1e8, 0, 0), (1e8 + 0.1, 0.3, 0.7), (0.1, 0.2, 0.3)),
    ((1e3, -1e3, 1e3), (1e3 + 1e-4, -1e3 + 1e-4, 1e3), (-1e3, 1e3, -1e3)),
])
def test_euclidean_solve_refuses_a_translation_that_fails_the_test(p0, p1, q0):
    # the rounding of sigma(p0, X) at large coordinates exceeds tol for a
    # short P0P1: no unverified point is returned
    assert not _assert_closed_form(EUCLID3, *map(np.array, (p0, p1, q0)))


def test_euclidean_solve_refuses_a_nan_residual():
    # sigma overflows to inf at coordinates ~1e200 and inf - inf is a NaN
    # residual, which fails the pairwise test; the solve returned it as `single`
    with np.errstate(over="ignore", invalid="ignore"):
        assert not _assert_closed_form(Geometry.euclidean(2), np.array([1e200, 0.0]),
                                       np.array([-1e200, 1.0]), np.array([0.0, 1e200]))


@pytest.mark.parametrize("big", [1e200, 1e308])  # the squares overflow; also p1 - p0
@pytest.mark.parametrize("dim", [2, 8])
def test_overflowing_euclidean_solve_raises_without_a_warning(dim, big):
    # Python floats overflow to inf silently; from 8 coordinates the numpy
    # stage runs under np.errstate, as the substrate solve's does
    p0, p1, q0 = np.zeros((3, dim))
    p0[0], p1[0], p1[-1], q0[-1] = big, -big, 1.0, big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.SolverFailureError, match="translation"):
            wf.solve_equivalent(Geometry.euclidean(dim), p0, p1, q0)


def test_euclidean_solve_diagnostics_say_no_newton_ran():
    cfgs = [None, SolverConfig(starts=1, max_iter=0, seed=9)]
    sols = [wf.solve_equivalent(EUCLID3, (0, 0, 0), (1, 2, -1), (0.5, -1, 2), cfg) for cfg in cfgs]
    d = sols[0].diagnostics
    assert (d.starts_attempted, d.converged_count, d.jacobian_rank) == (0, 0, 1)
    assert (d.cells_examined, d.cells_nonempty) == (0, 0)
    out = sols[0].to_dict()
    assert out["diagnostics"] == {"starts_attempted": 0, "converged_count": 0, "jacobian_rank": 1,
                                  "cells_examined": 0, "cells_nonempty": 0}
    assert out["representatives"] == [[1.5, 1.0, 1.0]]
    # starts, max_iter and seed are not read
    assert sols[1].to_dict() == out


# malformed points by slot (0, 1, 2 = p0, p1, q0) in dimension n, with the
# error of the first bad one in slot order
_BAD_POINTS = {
    "dimension": ({2: lambda n: [0.5] * (n - 1)}, wf.DimensionMismatchError,
                  lambda n: f"point has dimension {n - 1}, expected {n}"),
    "nan": ({1: lambda n: [math.nan] + [1.0] * (n - 1)}, wf.InvalidInputError,
            lambda n: "point coordinates must be finite"),
    "inf": ({2: lambda n: [0.5] * (n - 1) + [math.inf]}, wf.InvalidInputError,
            lambda n: "point coordinates must be finite"),
    "nested": ({0: lambda n: [[0] * n]}, wf.InvalidInputError,
               lambda n: f"point must be a flat coordinate tuple, got shape (1, {n})"),
    "string": ({1: lambda n: "abc"}, wf.InvalidInputError,
               lambda n: "a point must be a flat list of numbers, got 'abc'"),
    "ragged": ({0: lambda n: (1, [0], 0)}, wf.InvalidInputError,
               lambda n: "a point must be a flat list of numbers, got (1, [0], 0)"),
    "none": ({2: lambda n: None}, wf.InvalidInputError,
             lambda n: "point must be a flat coordinate tuple, got shape ()"),
    "scalar": ({2: lambda n: 5.0}, wf.InvalidInputError,
               lambda n: "point must be a flat coordinate tuple, got shape ()"),
    "first_wins": ({0: lambda n: [0.0] * (n + 1), 1: lambda n: "abc"}, wf.DimensionMismatchError,
                   lambda n: f"point has dimension {n + 1}, expected {n}"),
    "nan_before_overflow": ({0: lambda n: [math.nan] * n, 1: lambda n: [10 ** 400] * n},
                            wf.InvalidInputError, lambda n: "point coordinates must be finite"),
}


def _bad_points(g, case, slots=3):
    """The points of a _BAD_POINTS case, the first ``slots`` of p0, p1, q0, and its error."""
    bad, exc, msg = _BAD_POINTS[case]
    n = g.dim
    points = [[0.0] * n, [1.0] * n, [0.5] * n]
    for slot, make in bad.items():
        points[min(slot, slots - 1)] = make(n)
    return points[:slots], exc, msg(n)


@pytest.mark.parametrize("g", [EUCLID3, MINK], ids=["euclidean", "minkowski"])
@pytest.mark.parametrize("case", list(_BAD_POINTS))
def test_solve_rejects_malformed_points(g, case):
    points, exc, msg = _bad_points(g, case)
    _assert_raises_exactly(exc, msg, wf.solve_equivalent, g, *points)


@pytest.mark.parametrize("g", [EUCLID3, MINK], ids=["euclidean", "minkowski"])
@pytest.mark.parametrize("case", list(_BAD_POINTS))
def test_segment_operations_reject_malformed_points(g, case):
    for call, slots in ((wf.segment_membership, 3), (wf.sample_segment_tube, 2)):
        points, exc, msg = _bad_points(g, case, slots)
        _assert_raises_exactly(exc, msg, call, g, *points)


@pytest.mark.parametrize("g", [EUCLID3, MINK], ids=["euclidean", "minkowski"])
def test_solve_rejects_p0_equal_to_p1_up_to_the_sign_of_zero(g):
    p0, p1 = [0.0] * g.dim, [-0.0] + [0.0] * (g.dim - 1)
    _assert_raises_exactly(wf.InvalidInputError, "p0 and p1 must differ",
                           wf.solve_equivalent, g, p0, p1, [0.5] * g.dim)


def _assert_raises_exactly(exc, msg, call, *args):
    with pytest.raises(exc) as info:
        call(*args)
    assert type(info.value) is exc and str(info.value) == msg


@pytest.mark.parametrize("call", [
    lambda cfg: wf.solve_equivalent(EUCLID3, (0, 0, 0), (1, 0, 0), (0, 0, 0), cfg),
    lambda cfg: wf.sample_segment_tube(EUCLID3, (0, 0, 0), (1, 0, 0), cfg),
], ids=["solve_equivalent", "sample_segment_tube"])
@pytest.mark.parametrize("cfg", [{"stations": 3}, {}, 3, "starts=4"])
def test_config_argument_must_be_the_config_class(call, cfg):
    with pytest.raises(wf.InvalidInputError, match=r"Config or None.*Config\.from_dict"):
        call(cfg)


_RANK_CUTOFF = 1e-8


def _radius(p0, p1):
    """The chart distance within which the multistart merged roots."""
    return 1e-4 * max(1.0, float(np.linalg.norm(np.subtract(p1, p0))))


class _ResidualRows:
    """P0P1 at q0 for the references below: the points, the tolerance and,
    called on end points X (m, n), the pairwise test's residual rows (m, 2)."""

    def __init__(self, g, p0, p1, q0):
        self.g = g
        self.refs = np.array([p0, p1, q0], dtype=float)  # (3, n)
        self.tol_abs = 1e-9 * max(1.0, abs(2.0 * wf.sigma(g, p0, p1)))

    def __call__(self, X):
        return np.column_stack(eqv._equivalence_residuals(self.g, *self.refs, X, 0.0)[1:3])


def _jacobian(rmap, X):
    """Residual Jacobian rows (m, 2, n) at X (m, n) for the references below.

    The residuals are sums of sigma(ref, X), so with G_k = d sigma(ref_k, X) /
    dX, one stacked ``_sigma_gradient`` call (F' from F's cells), the rows are
    G_0 - G_1 - G_2 (parallelism) and -2 G_2 (length).
    """
    G = _sigma_gradient(rmap.g, rmap.refs[:, None, :], X[None, :, :])
    return np.stack([G[0] - G[1] - G[2], -2.0 * G[2]], axis=1)


def _manifold_dims(rmap, reps, radius, tol_abs):
    """Solution-set dimension (0 or n - 2), Jacobian rank and tube reach at each
    representative: the second-order test the multistart classified its roots
    by, kept as the reference for the cell walk's verdicts.

    With J = U S V^T, c = U[:, -1] and K the rows of V^T after the first, the
    residual combination c . r on K is s_min y0 + y^T A y / 2 to second order,
    A = K (c . H) K^T for the residual Hessians H.  On the Minkowski
    substrate each sigma(ref_k, X) has the Hessian F'(sigma_M) eta off the
    kinks of F, so c . H is the diagonal (c_0 (s_0 - s_1 - s_2) - 2 c_1 s_2) eta
    for the slopes s_k, read at X - ref_k as ``_sigma_gradient`` reads them.
    A definite A keeps the roots within 2 s_min / min|eig A| of the
    representative: it is isolated when that is within radius.  Otherwise the
    roots form an (n - 2)-manifold: by the implicit function theorem at full
    rank, a cone at rank 1 (Griewank, SIAM Review 27, 1985).  The reach of an
    isolated root, sqrt(2 tol_abs / min|eig A|), bounds its tolerance tube.
    """
    J = _jacobian(rmap, reps)
    U, S, Vt = np.linalg.svd(J)
    rank = (S > _RANK_CUTOFF * S[:, :1]).sum(axis=1)
    K = Vt[:, 1:]
    c = U[:, :, -1]
    d = reps[None, :, :] - rmap.refs[:, None, :]
    s = _slope(rmap.g.deformation, 0.5 * (d[..., 0] ** 2 - np.sum(d[..., 1:] ** 2, axis=-1)))
    cH = (c[:, 0] * ((s[0] - s[1]) - s[2]) + c[:, 1] * (-2.0 * s[2]))[:, None] * eqv._ETA
    eig = np.linalg.eigvalsh((K * cH[:, None, :]) @ K.transpose(0, 2, 1))
    definite = (eig[:, 0] > 0.0) | (eig[:, -1] < 0.0)
    eig_min = np.abs(eig).min(axis=1)
    isolated = definite & (2.0 * S[:, -1] <= radius * eig_min)
    reach = np.sqrt(2.0 * tol_abs / np.where(isolated, eig_min, np.inf))
    return np.where(isolated, 0, reps.shape[1] - 2), rank, reach


def test_isolated_root_reach_keeps_a_distinct_root():
    # the translation answer is an isolated tangent point of one slope cell;
    # another cell's piece is a 2-surface, its point far outside the isolated
    # root's reach
    p0 = np.array([-0.8165807124878153, 0.14862374614827378, 0.4798234986473213, 0.029716628985286375])
    p1 = np.array([0.4196950711205416, 0.6205046280559159, 0.48847170140365115, 0.47754936645513846])
    q0 = np.array([-0.10638926858575526, -0.8764879816358493, 0.6690337363294017, 0.10649896836813677])
    g = Geometry.discrete(0.01)
    sol = wf.solve_equivalent(g, p0, p1, q0, SolverConfig(starts=64, seed=41))
    assert sol.variance == "multi"
    assert len(sol.representatives) == 2
    reps = np.array(sol.representatives)
    rmap = _ResidualRows(g, p0, p1, q0)
    tol_abs = rmap.tol_abs
    dims, _, reach = _manifold_dims(rmap, reps, _radius(p0, p1), tol_abs)
    assert sorted(dims.tolist()) == [0, 2]
    assert np.abs(reps[dims == 0] - (q0 + p1 - p0)).max() <= 1e-12
    assert np.linalg.norm(np.subtract(*reps)) > 10.0 * reach.max()
    assert np.abs(sol.residuals).max() <= 1e-14  # rounding: the walk's points are exact


def _manifold_dims_from_hessian_stacks(rmap, reps, radius, tol_abs):
    """The second-order test as it contracted (m, 2, n, n) residual Hessian
    stacks with c = U[:, :, -1], kept as the reference of ``_manifold_dims``."""
    J = _jacobian(rmap, reps)
    U, S, Vt = np.linalg.svd(J)
    rank = (S > _RANK_CUTOFF * S[:, :1]).sum(axis=1)
    K = Vt[:, 1:]
    d = reps[None, :, :] - rmap.refs[:, None, :]
    sm = 0.5 * (d[..., 0] * d[..., 0] - np.sum(d[..., 1:] * d[..., 1:], axis=-1))
    H = _slope(rmap.g.deformation, sm)[..., None, None] * np.diag([1.0, -1.0, -1.0, -1.0])
    H = np.stack([H[0] - H[1] - H[2], -2.0 * H[2]], axis=1)
    cH = np.einsum("mi,mijk->mjk", U[:, :, -1], H)
    eig = np.linalg.eigvalsh(K @ cH @ K.transpose(0, 2, 1))
    definite = (eig[:, 0] > 0.0) | (eig[:, -1] < 0.0)
    eig_min = np.abs(eig).min(axis=1)
    isolated = definite & (2.0 * S[:, -1] <= radius * eig_min)
    reach = np.sqrt(2.0 * tol_abs / np.where(isolated, eig_min, np.inf))
    return np.where(isolated, 0, reps.shape[1] - 2), rank, reach


_KINK_TABLE = [[-2.0, -2.1], [-0.5, -0.52], [0.0, 0.0], [0.5, 0.53], [2.0, 2.1]]


def _class_input(rng, cls):
    """(p0, p1, q0), p0 and q0 uniform in [-1, 1]^4 and p1 - p0 future-pointing,
    near the light cone (cls 0), timelike (1) or spacelike (2)."""
    p0, q0 = rng.uniform(-1.0, 1.0, (2, 4))
    v = rng.normal(size=3)
    r = rng.uniform(0.3, 1.5)
    dt = r * (1.0 + rng.uniform(-1e-3, 1e-3), rng.uniform(1.2, 2.0), rng.uniform(0.0, 0.8))[cls]
    return p0, p0 + np.concatenate([[dt], r * v / np.linalg.norm(v)]), q0


@pytest.mark.parametrize("g", [MINK, Geometry.discrete(0.01), Geometry.grainy(0.01, 0.125),
                               Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE))],
                         ids=["minkowski", "discrete", "grainy", "table"])
def test_manifold_dims_match_the_hessian_stack_contraction(g):
    rng = np.random.default_rng(11)
    cases = []
    for k in range(6):  # near-cone, timelike and spacelike P0P1, two of each
        p0, p1, q0 = _class_input(rng, k % 3)
        sol = wf.solve_equivalent(g, p0, p1, q0, SolverConfig(starts=16, seed=k))
        reps = np.array(sol.representatives).reshape(-1, 4)
        cases.append((p0, p1, q0, np.vstack([reps, reps + rng.normal(scale=1e-3, size=reps.shape),
                                             q0 + rng.uniform(-2.0, 2.0, (8, 4))])))
    # exact structure: the near-cone root and points whose sigma_M against a
    # reference sits on a kink of F (0 for the discrete jump, +-0.125 at the
    # grainy ramp's edges, +-0.5 at table breakpoints) or on the light cone
    kinks = np.array([[0.5, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
                      [1.001, 1.0, 0.0, 0.0], [1.001, 1.0, 1e-6, 0.0], [0.5, 0.25, 0.0, 0.25]])
    cases.append((np.zeros(4), np.array([1.001, 1.0, 0.0, 0.0]), np.zeros(4), kinks))
    cases.append((np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4), kinks))
    cases.append((np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.0, 0.0]), kinks))
    for p0, p1, q0, X in cases:
        rmap = _ResidualRows(g, p0, p1, q0)
        for radius, tol_abs in ((1e-4, 1e-9), (1e-2, 1e-6)):
            got = _manifold_dims(rmap, X, radius, tol_abs)
            want = _manifold_dims_from_hessian_stacks(rmap, X, radius, tol_abs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_solve_euclidean_low_dims_single(dim):
    rng = np.random.default_rng(dim)
    for k in range(10):
        p0, p1, q0 = rng.uniform(-3, 3, (3, dim))
        sol = wf.solve_equivalent(Geometry.euclidean(dim), p0, p1, q0, SolverConfig(starts=4, seed=k))
        assert (sol.variance, sol.manifold_dim_estimate) == ("single", 0)
        assert np.linalg.norm(sol.representatives[0] - (q0 + p1 - p0)) < 1e-6


def _assert_one_residual_call_on_the_walk(monkeypatch, cases):
    # the three fixed terms come from the walk's own squares, then one sigma
    # call at the walk's points and one residual row, whose rows pass at
    # once: the representatives and their residuals are rows of that call
    walks = []
    walk = eqv._cell_starts

    def walk_spy(*args):
        walks.append(walk(*args))
        return walks[-1]

    monkeypatch.setattr(eqv, "_cell_starts", walk_spy)
    sigma_calls, rows = _spy_on_the_residual_row(monkeypatch)
    for g, (p0, p1, q0) in cases:
        for calls in (walks, sigma_calls, rows):
            calls.clear()
        sol = wf.solve_equivalent(g, p0, p1, q0)
        assert sol.diagnostics.cells_examined > 0
        assert len(walks) == len(rows) == 1
        roots = walks[0][0]
        assert sigma_calls == [(3, len(roots), 4)]
        res = np.column_stack(rows[0])
        assert (np.abs(res).max(axis=1) <= 1e-9 * max(1.0, abs(2.0 * wf.sigma(g, p0, p1)))).all()
        by_root = {x.tobytes(): r.tobytes() for x, r in zip(roots, res)}
        assert len(sol.representatives) == len(roots) >= 1
        for x, r in zip(sol.representatives, sol.residuals):
            assert by_root[x.tobytes()] == np.array(r).tobytes()


def test_generic_solve_runs_newton_once(monkeypatch):
    # off the line p0p1 the walk's kernel, least-norm map and eta-diagonal
    # basis are closed forms: no svd or eigh runs
    linalg = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=real, _n=name, **k: linalg.append(_n) or _f(*a, **k))
    rng = np.random.default_rng(8)
    cases = [(g, _class_input(rng, cls)) for g in _CELL_GEOMS for cls in (0, 1, 2)]
    _assert_one_residual_call_on_the_walk(monkeypatch, cases)
    assert linalg == []
    # on the line the walk still diagonalises its 3 x 3 eta-Gram by eigh
    wf.solve_equivalent(MINK, ORIGIN4, (0, 1, 0, 0), ORIGIN4)
    assert linalg == ["svd", "eigh"]


def test_solve_with_q0_at_p0_runs_newton_once(monkeypatch):
    # q0 on the line p0p1 (the README's q0 = p0) is walked like any other input
    cases = [(g, (ORIGIN4, (0, 1, 0, 0), ORIGIN4)) for g in _CELL_GEOMS]
    _assert_one_residual_call_on_the_walk(monkeypatch, cases)


def test_solve_evaluates_each_residual_once(monkeypatch):
    # the reported residuals are the residual map's own rows: the pairwise test is never re-run
    calls = []
    residuals = eqv._equivalence_residuals

    def spy(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(eqv, "_equivalence_residuals", spy)
    for g, p1 in ((MINK, (0, 1, 0, 0)), (MINK, (1.001, 1, 0, 0)), (Geometry.discrete(0.01), (0.3, 1, 0, 0))):
        sol = wf.solve_equivalent(g, ORIGIN4, p1, (0.1, 0.2, 0, 0), SolverConfig(starts=16))
        assert sol.representatives
    assert calls == []


def test_solve_residuals_are_the_pairwise_test_bit_for_bit():
    rng = np.random.default_rng(26)
    checked = 0
    for g in _SOLVER_GEOMS:
        for k in range(6):
            p0, p1, q0 = rng.uniform(-2, 2, (3, g.dim))
            sol = wf.solve_equivalent(g, p0, p1, q0, SolverConfig(starts=32, seed=k))
            assert len(sol.residuals) == len(sol.representatives)
            for x, (r_par, r_len) in zip(sol.representatives, sol.residuals):
                rep = wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x))
                assert rep.equivalent
                got = np.array([rep.residual_parallel, rep.residual_length])
                assert got.tobytes() == np.array([r_par, r_len]).tobytes()
                checked += 1
    assert checked >= 30


def test_solve_reports_the_starts_it_ran():
    # a count below one start used to run one start silently
    for starts in (0, -3):
        with pytest.raises(wf.InvalidInputError, match="starts must be >= 1"):
            SolverConfig(starts=starts)
    sol = wf.solve_equivalent(MINK, ORIGIN4, (1, 0, 0, 0), ORIGIN4, SolverConfig(starts=1))
    assert sol.diagnostics.starts_attempted == 1


def test_solver_config_rejects_a_negative_iteration_count():
    with pytest.raises(wf.InvalidInputError, match="max_iter must be >= 0"):
        SolverConfig(max_iter=-1)
    assert SolverConfig(max_iter=0).max_iter == 0


def test_near_cone_discrete_solve_reports_stalled_starts():
    # seed 142 of the solve benchmark, a near-cone discrete input (<u, u> / |u|^2 =
    # -2.9e-6): one cell's piece lies wholly ~1e4 from q0, where the residual of
    # its point rounds above tol, and the solve drops that point
    p0 = np.array([0.6542571592589956, 0.059778921214089786, 0.6214190897969623, 0.6372187023268399])
    p1 = np.array([1.348249950173909, 0.35575520625062507, 1.0013729822862862, 1.1368804083023898])
    q0 = np.array([-0.8602615890295631, -0.41444232765715383, -0.16589625102675432, -0.12167664450449833])
    sol = wf.solve_equivalent(Geometry.discrete(0.01), p0, p1, q0)
    diags = sol.diagnostics
    assert (diags.starts_attempted, diags.converged_count) == (3, 2)
    assert len(sol.representatives) == 2


# ---------------------------------------------------------------------------
# the generic branch: one root per non-empty slope cell of F
# ---------------------------------------------------------------------------

_CELL_GEOMS = [MINK, Geometry.discrete(0.01), Geometry.grainy(0.01, 0.03),
               Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE))]
# a timelike grainy input the multistart reported `single` at starts=64, seed 42
_GRAINY_MISS = (
    np.array([0.7870774673541412, -0.42096038727593643, -0.1987541200403926, 0.5526787106043458]),
    np.array([-0.6662348606024622, -1.0563405586902288, 0.28764262323083434, 0.2176592551078591]),
    np.array([-0.4625623196756994, 0.5075521068720097, 0.13645920048634874, -0.5242619354361382]))


@pytest.mark.parametrize("segment, definite, want", [
    # segment: (lo, hi, A, B, C, near, reach, kind wanted), rho(s) = A s^2 + B s + C
    # on lo < s < hi; definite: a sphere, else every s carries points
    ((-math.inf, math.inf, 1.0, 0.0, -4.0, 0.0, 1.0, 2), True, 0.0),  # surface, its deepest point
    ((-math.inf, math.inf, 1.0, 0.0, 1e-12, 3.0, 1.0, 1), True, 0.0),  # tangent point within tol_rho
    ((1.0, 2.0, 1.0, 0.0, -4.0, 1.5, 10.0, 2), True, 1.5),  # surface off the extremum: s = near
    ((1.0, 5.0, -1.0, 0.0, 4.0, 3.5, 1.0, 2), True, 3.5),  # rho < 0 beyond its root 2
    ((-math.inf, math.inf, -1.0, 0.0, 0.0, -1.0, 1.0, 2), True, -1.0),  # rho = -s^2: not at the apex
    ((3.0, 5.0, 1.0, 0.0, -4.0, 4.0, 1.0, 0), True, math.nan),  # rho > 0 on the whole segment: empty
    # rho reaches 0 only at the lower end, a breakpoint of F: the root is the
    # boundary of the previous cell's surface, which reports it
    ((2.0, 5.0, 1.0, 0.0, -4.0, 3.0, 1.0, 0), True, None),
    ((1.0, math.inf, 2.0, 0.0, 3.0, 2.0, 1.0, 2), False, 2.0),  # indefinite: every point is on a hyperbola
    ((1.0, 2.0, 1.0, 0.0, -4.0, 0.0, 10.0, 2), True, 1.25),  # near outside: a quarter of the segment in
    ((1.0, 5.0, -1.0, 0.0, 4.0, 0.0, 1.0, 2), True, 2.25),  # beyond the root by a quarter of reach
    ((-math.inf, math.inf, -1.0, 0.0, 0.0, 1e-6, 4.0, 2), True, 1.0),  # near the apex: the nearest part
    ((0.0, 5.0, 1.0, 0.0, 0.0, 3.0, 1.0, 1), True, 0.0),  # tangent at the lower end
    ((-5.0, 0.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0), True, None),  # at the upper end: the next cell's
    ((-math.inf, math.inf, 0.0, 0.0, 0.0, 3.0, 1.0, 3), True, 3.0),  # rho = 0 all along: a curve
    ((0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 2), True, 0.0),  # one s: a sphere
    ((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0), True, 0.0),  # one s: rho > 0, empty
    ((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2), False, 0.0),  # one s: a hyperboloid
])
def test_cell_point_verdicts(segment, definite, want):
    *piece, kind = segment
    got, got_kind = eqv._piece_s(*piece, not definite, 1e-9)
    assert got_kind == kind
    if want is None or math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-4)


# the structure of the walk's solves on the solve benchmark's input classes
# (_class_input: near-cone, timelike, spacelike P0P1), seeds 0-3 each, as the
# masked-array post-walk stage gave it: (variance, dimension, representatives,
# starts_attempted, converged_count, jacobian_rank, cells_examined, cells_nonempty)
_PINNED_WALKS = {
    "minkowski": [
        # near-cone, seeds 0-3
        ("single", 0, 1, 1, 1, 1, 4, 1), ("multi", 2, 3, 3, 3, 2, 4, 3),
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 3, 3, 3, 2, 4, 3),
        # timelike, seeds 0-3
        ("single", 0, 1, 1, 1, 1, 4, 1), ("single", 0, 1, 1, 1, 1, 4, 1),
        ("single", 0, 1, 1, 1, 1, 4, 1), ("single", 0, 1, 1, 1, 1, 4, 1),
        # spacelike, seeds 0-3
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 3, 3, 3, 2, 4, 3),
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 3, 3, 3, 2, 4, 3),
    ],
    "discrete": [
        # near-cone, seeds 0-3
        ("multi", 2, 2, 2, 2, 2, 4, 2), ("multi", 2, 3, 3, 3, 2, 4, 3),
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 2, 2, 2, 2, 4, 2),
        # timelike, seeds 0-3
        ("multi", 2, 1, 1, 1, 2, 4, 1), ("multi", 2, 1, 1, 1, 2, 4, 1),
        ("multi", 2, 1, 1, 1, 2, 4, 1), ("single", 0, 1, 1, 1, 1, 4, 1),
        # spacelike, seeds 0-3
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 3, 3, 3, 2, 4, 3),
        ("multi", 2, 3, 3, 3, 2, 4, 3), ("multi", 2, 3, 3, 3, 2, 4, 3),
    ],
    "grainy": [
        # near-cone, seeds 0-3
        ("multi", 2, 1, 1, 1, 2, 16, 1), ("multi", 2, 4, 4, 4, 2, 16, 4),
        ("multi", 2, 4, 4, 4, 2, 16, 4), ("multi", 2, 2, 2, 2, 2, 16, 2),
        # timelike, seeds 0-3
        ("multi", 2, 1, 1, 1, 2, 16, 1), ("multi", 2, 1, 1, 1, 2, 16, 1),
        ("multi", 2, 1, 1, 1, 2, 16, 1), ("single", 0, 1, 1, 1, 1, 16, 1),
        # spacelike, seeds 0-3
        ("multi", 2, 7, 7, 7, 2, 16, 7), ("multi", 2, 7, 7, 7, 2, 16, 7),
        ("multi", 2, 7, 7, 7, 2, 16, 7), ("multi", 2, 7, 7, 7, 2, 16, 7),
    ],
    "deformed": [
        # near-cone, seeds 0-3
        ("multi", 2, 8, 8, 8, 2, 36, 8), ("multi", 2, 11, 11, 11, 2, 36, 11),
        ("multi", 2, 11, 11, 11, 2, 36, 11), ("multi", 2, 10, 10, 10, 2, 36, 10),
        # timelike, seeds 0-3
        ("multi", 2, 1, 1, 1, 2, 36, 1), ("multi", 2, 2, 2, 2, 2, 36, 2),
        ("multi", 2, 2, 2, 2, 2, 36, 2), ("multi", 2, 2, 2, 2, 2, 36, 2),
        # spacelike, seeds 0-3
        ("multi", 2, 11, 11, 11, 2, 36, 11), ("multi", 2, 11, 11, 11, 2, 36, 11),
        ("multi", 2, 11, 11, 11, 2, 36, 11), ("multi", 2, 11, 11, 11, 2, 36, 11),
    ],
}


@pytest.mark.parametrize("g", _CELL_GEOMS, ids=["minkowski", "discrete", "grainy", "table"])
def test_the_walk_keeps_its_structure(g):
    got = []
    for cls in (0, 1, 2):
        for seed in range(4):
            p0, p1, q0 = _class_input(np.random.default_rng(seed), cls)
            sol = wf.solve_equivalent(g, p0, p1, q0)
            got.append((sol.variance, sol.manifold_dim_estimate, len(sol.representatives),
                        *dataclasses.astuple(sol.diagnostics)))
            for x, r in zip(sol.representatives, sol.residuals):
                rep = wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x))
                assert rep.equivalent
                assert np.array([rep.residual_parallel, rep.residual_length]).tobytes() == np.array(r).tobytes()
    assert got == _PINNED_WALKS[g.kind]


@pytest.mark.parametrize("starts", [1, 64, 1024])
def test_grainy_surface_is_found_whatever_the_start_count(starts):
    # cells (2, 1) and (2, 2) of F hold a 2-surface; the random box found it
    # only from 256 starts on
    g = Geometry.grainy(0.01, 0.03)
    p0, p1, q0 = _GRAINY_MISS
    for seed in (0, 1, 2, 3, 42):
        sol = wf.solve_equivalent(g, p0, p1, q0, SolverConfig(starts=starts, seed=seed))
        assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)
        assert sol.diagnostics.cells_nonempty >= 1
        for x, r in zip(sol.representatives, sol.residuals):
            rep = wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x))
            assert rep.equivalent
            assert np.array([rep.residual_parallel, rep.residual_length]).tobytes() == np.array(r).tobytes()


@pytest.mark.parametrize("g", _CELL_GEOMS, ids=["minkowski", "discrete", "grainy", "table"])
def test_cell_starts_agree_with_the_multistart(g):
    # the oracle: the multistart the walk replaced, at 1024 starts
    rng = np.random.default_rng(8)
    for pts in [_class_input(rng, cls) for cls in (0, 1, 2, 0, 1, 2)]:
        sol = wf.solve_equivalent(g, *pts)
        assert sol.diagnostics.cells_examined == len(eqv._cells(g.deformation)[1]) ** 2
        assert (sol.variance, sol.manifold_dim_estimate) == _multistart_verdict(g, *pts, 1024)


def _multistart_verdict(g, p0, p1, q0, starts, seed=0):
    """(variance, dimension) as the multistart the cell walk replaced found them:
    Newton from the translation guess and seeded starts in a box of half-width
    5 around q0, a dedupe, 12 more steps at tolerance 0, the second-order test
    and one cover of the isolated roots' reach."""
    rmap = _ResidualRows(g, p0, p1, q0)
    tol_abs = rmap.tol_abs
    radius = _radius(p0, p1)
    X0 = np.vstack([q0 + (p1 - p0), q0 + np.random.default_rng(seed).uniform(-5, 5, (starts - 1, 4))])
    X, res, conv, _ = _reference_newton(rmap, X0, tol_abs, 100)
    if not conv.any():
        return "zero", 0
    X, res = X[conv], res[conv]
    reps, res, *_ = _reference_newton(rmap, X[_greedy(X, np.full(len(X), radius), res)], 0.0, 12)
    dims, _, reach = _manifold_dims(rmap, reps, radius, tol_abs)
    kept = _greedy(reps, np.maximum(radius, reach), res)
    return "single" if dims[kept].tolist() == [0] else "multi", int(dims[kept].max())


def _reference_newton(rmap, X0, tol_abs, max_iter):
    """The damped pseudo-inverse Newton the multistart ran, kept as the
    reference polish of ``_multistart_verdict``: each step is -pinv(J) r, and
    each row halves its step, at most five trials, until its max-norm
    residual falls.  A row whose last accepted step cut its residual norm by
    a ratio near 1/4, as at a double root, starts at lambda = 2 and keeps that
    trial only where it beats a lambda = 1 trial (Decker, Keller & Kelley,
    SIAM J. Numer. Anal. 20, 1983).  Returns (X, res, converged, stalled)."""
    X = np.array(X0, dtype=float)
    res = rmap(X)
    rnorm = np.abs(res).max(axis=1)
    converged = rnorm <= tol_abs
    stalled = np.zeros(len(X), dtype=bool)
    active = ~converged
    ratio = np.ones(len(X))
    for _ in range(max_iter):
        if not active.any():
            break
        ia = np.flatnonzero(active)
        Xa = X[ia]
        J = _jacobian(rmap, Xa)
        bad = ~np.all(np.isfinite(J), axis=(1, 2))
        if bad.any():
            active[ia[bad]] = False
            ia, Xa, J = ia[~bad], Xa[~bad], J[~bad]
            if ia.size == 0:
                break
        step = -np.einsum("mij,mj->mi", np.linalg.pinv(J), res[ia])
        lam = np.where(np.abs(ratio[ia] - 0.25) < 0.05, 2.0, 1.0)
        accepted = np.zeros(ia.size, dtype=bool)
        best = rnorm[ia].copy()
        Xnew = Xa.copy()
        Rnew = np.empty((ia.size, 2))
        for _ in range(5):
            rem = np.flatnonzero(~accepted)
            if rem.size == 0:
                break
            trial = Xa[rem] + lam[rem, None] * step[rem]
            tres = rmap(trial)
            tnorm = np.abs(tres).max(axis=1)
            ok = tnorm < best[rem]
            two = lam[rem] == 2.0
            if two.any():
                at_one = np.abs(rmap(Xa[rem[two]] + step[rem[two]])).max(axis=1)
                ok[two] &= tnorm[two] < at_one
            took = rem[ok]
            Xnew[took] = trial[ok]
            Rnew[took] = tres[ok]
            best[took] = tnorm[ok]
            lam[rem[~ok]] *= 0.5
            accepted[took] = True
        X[ia[accepted]] = Xnew[accepted]
        stalled[ia[~accepted]] = True
        active[ia[~accepted]] = False
        moved = ia[accepted]
        ratio[moved] = best[accepted] / rnorm[moved]
        res[moved] = Rnew[accepted]
        rnorm[moved] = best[accepted]
        newly = moved[rnorm[moved] <= tol_abs]
        converged[newly] = True
        active[newly] = False
    return X, res, converged, stalled


def _greedy(points, reach, res):
    """Indices of the points a greedy cover keeps: from the lowest residual up,
    each kept point absorbs every point within its reach."""
    kept = []
    for i in np.lexsort(tuple(points.T[::-1]) + (np.abs(res).max(axis=1),)).tolist():
        if not kept or (np.linalg.norm(points[kept] - points[i], axis=1) > reach[kept]).all():
            kept.append(i)
    return kept


@pytest.mark.parametrize("g", _CELL_GEOMS, ids=["minkowski", "discrete", "grainy", "table"])
def test_polishing_cell_roots_moves_no_verdict(g):
    # the polish the multistart gave its rows, run on the walk's
    # representatives: it moves an isolated root by rounding only and flips
    # no verdict of the second-order test; a root on a manifold may slide
    # along it
    rng = np.random.default_rng(6)
    for cls in (0, 1, 2) * 2:
        p0, p1, q0 = _class_input(rng, cls)
        sol = wf.solve_equivalent(g, p0, p1, q0)
        assert sol.diagnostics.cells_examined > 0
        reps = np.array(sol.representatives).reshape(-1, 4)
        rmap = _ResidualRows(g, p0, p1, q0)
        tol_abs = rmap.tol_abs
        radius = _radius(p0, p1)
        polished, res, *_ = _reference_newton(rmap, reps, 0.0, 12)
        assert (np.abs(res) <= tol_abs).all()
        dims = _manifold_dims(rmap, reps, radius, tol_abs)[0]
        assert _manifold_dims(rmap, polished, radius, tol_abs)[0].tolist() == dims.tolist()
        move = np.abs(polished - reps).max(axis=1) / np.maximum(1.0, np.abs(reps).max(axis=1))
        assert (move[dims == 0] <= 1e-9).all()


# seed 103, job 139 of the solve benchmark (table F): W is nearly null (the
# eta-square of a unit direction of its complement is 1.2e-4), so the
# eta-projection onto W lies ~1e4 from q0; the walk starts each of its eleven
# cells from near the Euclidean least-norm point instead
_FAR_ROOTS = (
    np.array([0.5838061501050291, 0.5188971889187188, 0.6256168388273908, 0.4398661505435735]),
    np.array([0.6422316059700038, 1.7445054791030155, 1.1973155134013878, 0.11478337693536733]),
    np.array([-0.3708426841157513, 0.22225389790052086, 0.476349043007807, -0.4582411965749309]))
# seed 246, job 445 (grainy): six cell pieces, two of them meeting within
# 1e-4 of each other in neighbouring cells of the ramp
_CLOSE_ROOTS = (
    np.array([-0.8739612118803086, -0.8409465244714163, 0.2947369627141976, -0.5256700829088232]),
    np.array([-0.7094954198059791, -0.6904381770349051, -0.3827259277648597, 0.10962489078016635]),
    np.array([0.4036253684312341, -0.6207692159417744, 0.030972776116416023, 0.6801439636027373]))
# a near-cone spacelike Minkowski input whose translation is the apex of a
# 2-cone (rho = 0 at the extremum of rho), where the Jacobian has rank 1
_CONE_APEX = (
    np.array([-0.7794962424490839, -0.47510346125361824, -0.8273349515338939, 0.9716314646818183]),
    np.array([-0.22009526374321375, -0.11624988120313468, -1.2568081011298686, 0.9757263035727672]),
    np.array([-0.7561238513829629, 0.9621601125427315, 0.26833808567549133, 0.9154639179028854]))


def test_generic_solve_reports_its_cell_walk():
    # one representative per non-empty cell that meets tol, sorted
    rng = np.random.default_rng(3)
    for g in _CELL_GEOMS:
        for cls in (0, 1, 2):
            sol = wf.solve_equivalent(g, *_class_input(rng, cls))
            d = sol.diagnostics
            assert d.cells_examined > 0
            assert len(sol.representatives) == d.converged_count
            reps = np.array(sol.representatives)
            assert np.lexsort(reps.T[::-1]).tolist() == list(range(len(reps)))
    p0, p1, q0 = _FAR_ROOTS
    sol = wf.solve_equivalent(Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE)), p0, p1, q0)
    d = sol.diagnostics
    assert (d.starts_attempted, d.converged_count) == (11, 11)
    assert np.abs(np.array(sol.representatives) - q0).max() < 10.0
    sol = wf.solve_equivalent(Geometry.grainy(0.01, 0.03), *_CLOSE_ROOTS)
    assert len(sol.representatives) == sol.diagnostics.cells_nonempty == 6
    # the point of a surface is a smooth one, not the apex of its cone
    sol = wf.solve_equivalent(MINK, *_CONE_APEX)
    d = sol.diagnostics
    assert (d.starts_attempted, d.converged_count) == (3, 3)
    assert (sol.variance, sol.manifold_dim_estimate, d.jacobian_rank) == ("multi", 2, 2)
    p0, p1, q0 = _CONE_APEX
    assert all(np.abs(x - (q0 + p1 - p0)).max() > 0.1 for x in sol.representatives)
    rmap = _ResidualRows(MINK, p0, p1, q0)
    S = np.linalg.svd(_jacobian(rmap, np.array(sol.representatives)), compute_uv=False)
    assert (S[:, 1] > _RANK_CUTOFF * S[:, 0]).all()


def test_cell_walk_reports_a_surface_inside_the_dedupe_radius():
    # the one criterion of the walk, rho below -tol_rho on a cell's segment, and
    # the multistart's, a root ellipsoid within the dedupe radius, part at the
    # tolerance scale.  Here one table-F cell's rho dips to -1.4 tol_rho: the
    # walk reports the small 2-surface (Newton from nearby starts finds roots
    # up to 6e-4 apart), the second-order test calls its root isolated
    g = Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE))
    p0 = np.array([-0.5366232533000357, 0.8813367320473127, 0.5107420666813947, -0.027281167986849875])
    p1 = np.array([-8.802471162699327, -1.9016165863262184, -2.5449246061123265, 0.33274452015220063])
    q0 = np.array([0.6306467979910524, -0.934837808086459, 0.5659528049686713, 0.25661023441641806])
    sol = wf.solve_equivalent(g, p0, p1, q0)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)
    assert len(sol.representatives) == sol.diagnostics.cells_nonempty == 1
    rmap = _ResidualRows(g, p0, p1, q0)
    tol_abs = rmap.tol_abs
    dims = _manifold_dims(rmap, np.array(sol.representatives), _radius(p0, p1), tol_abs)[0]
    assert dims.tolist() == [0]


@pytest.mark.parametrize("g", _CELL_GEOMS, ids=["minkowski", "discrete", "grainy", "table"])
@pytest.mark.parametrize("p0, p1", [
    ((0, 0, 0, 0), (1.001, 1, 0, 0)),  # timelike, near the cone
    ((0.25, -0.5, 0.125, 1), (1.75, 0, -0.375, 0.75)),  # timelike
    ((0, 0, 0, 0), (0.5, 1, 0, 0)),  # spacelike
    ((0.25, -0.5, 0.125, 1), (0.5, 0.5, 0.75, 0.5)),  # spacelike
])
def test_solve_at_q0_equal_p0_is_the_closed_form_set(g, p0, p1):
    # at q0 = p0, r_par = -sigma(p1, X): for every strictly increasing F the set
    # is {sigma_M(p0, X) = sigma_M(p0, p1), sigma_M(p1, X) = 0}, the point p1
    # for a timelike P0P1 (reverse Cauchy-Schwarz) and a 2-cone for a spacelike
    # one.  Dyadic coordinates make q0 + (p1 - p0) exactly p1.
    p0, p1 = np.array(p0, float), np.array(p1, float)
    sol = wf.solve_equivalent(g, p0, p1, p0)
    if mdot(p1 - p0, p1 - p0) > 0:
        assert (sol.variance, sol.manifold_dim_estimate) == ("single", 0)
        assert sol.representatives[0].tobytes() == p1.tobytes()
        return
    # the discrete F sees only p1 on the float cone (its jump at sigma_M = 0)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 2)
    for x in sol.representatives:
        assert abs(mdot(x - p0, x - p0) - mdot(p1 - p0, p1 - p0)) / 2 <= 1e-12
        assert abs(mdot(x - p1, x - p1)) / 2 <= 1e-12


def test_solve_requires_distinct_points():
    with pytest.raises(wf.InvalidInputError):
        wf.solve_equivalent(EUCLID3, (1, 1, 1), (1, 1, 1), (0, 0, 0))


def test_solver_config_from_combined_dict():
    d = {"starts": 256, "max_iter": 100, "tol": 1e-9, "stations": 64, "directions": 16, "seed": 0}
    cfg = SolverConfig.from_dict(d)
    assert cfg.starts == 256 and cfg.max_iter == 100
    tcfg = TubeSamplerConfig.from_dict(d)
    assert tcfg.stations == 64 and tcfg.directions == 16


def test_config_from_dict_coerces_to_field_types():
    tcfg = TubeSamplerConfig.from_dict({"max_radius": "1.5", "stations": "9", "directions": 4.0})
    assert (tcfg.max_radius, tcfg.stations, tcfg.directions) == (1.5, 9, 4)
    assert type(tcfg.max_radius) is float and type(tcfg.stations) is int
    tube = wf.sample_segment_tube(Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0), tcfg)
    assert np.nanmax(tube.radii) <= 1.5
    assert SolverConfig.from_dict({"tol": "1e-8"}).tol == 1e-8
    # the constructor is the same path: SolverConfig(tol="1e-8") used to fail in the solve
    cfg = SolverConfig(tol="1e-8", starts=4.0)
    assert (type(cfg.tol), type(cfg.starts)) == (float, int)
    assert wf.solve_equivalent(EUCLID3, (0, 0, 0), (1, 0, 0), (0, 1, 0), cfg).variance == "single"
    params = wf.ChainParams(geometry=MINK.to_dict(), link_sigma_m="0.5", steps=3.0)
    assert (type(params.link_sigma_m), type(params.steps)) == (float, int)
    assert params.geometry.kind == "minkowski"
    assert wf.UnitConstants(hbar="2", c=1).to_dict() == {"hbar": 2.0, "c": 1.0, "b": 1.0}
    # a float takes the same path as a string: -0.0 is stored as 0.0 either way
    assert math.copysign(1, SolverConfig(tol=-0.0).tol) == math.copysign(1, SolverConfig(tol="-0").tol) == 1


@pytest.mark.parametrize("cls,field,value", [
    (SolverConfig, "starts", 2.7), (SolverConfig, "starts", "2.7"), (SolverConfig, "seed", True),
    (TubeSamplerConfig, "stations", 9.5), (TubeSamplerConfig, "directions", False),
    (TubeSamplerConfig, "seed", "x")])
def test_config_from_dict_rejects_non_integral_counts(cls, field, value):
    # from_dict used to truncate: {"starts": 2.7} ran 2 starts
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be an integer"):
        cls.from_dict({field: value})


@pytest.mark.parametrize("cls,field", [(SolverConfig, "tol"), (TubeSamplerConfig, "tol"),
                                       (TubeSamplerConfig, "max_radius")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(cls, field, value):
    with pytest.raises(wf.InvalidInputError, match=field):
        cls(**{field: value})
    with pytest.raises(wf.InvalidInputError, match=field):
        cls.from_dict({field: str(value)})


@pytest.mark.parametrize("cls,field", [(SolverConfig, "tol"), (TubeSamplerConfig, "tol"),
                                       (TubeSamplerConfig, "max_radius")])
def test_config_rejects_negative_tolerance_and_radius(cls, field):
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be >= 0"):
        cls(**{field: -1e-12})
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be >= 0"):
        cls.from_dict({field: "-1"})
    assert getattr(cls(**{field: 0.0}), field) == 0.0


def test_tube_max_radius_may_be_none_or_zero():
    assert TubeSamplerConfig(max_radius=None).max_radius is None
    tube = wf.sample_segment_tube(Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0),
                                  TubeSamplerConfig(stations=5, directions=4, max_radius=0.0))
    assert np.isnan(tube.radii[1:-1]).all()


# ---------------------------------------------------------------------------
# solver internals: the residual map
# ---------------------------------------------------------------------------

_SOLVER_GEOMS = [EUCLID3, MINK, Geometry.discrete(0.01), Geometry.grainy(0.2, 1.5),
                 Geometry.deformed(DeformationFunction.from_table([[-5, -5.5], [0, 0], [5, 5.5]]))]


def test_residual_map_fills_the_rows_of_the_stacked_form():
    # a substrate solve's rows, from the three fixed terms of one stacked
    # sigma call and one call at the end points, are the pairwise test's
    # (r_par, r_len) of P0P1 against Q0X, from six broadcast calls
    rng = np.random.default_rng(20)
    for g in _SOLVER_GEOMS:
        refs = rng.uniform(-2, 2, (3, g.dim))
        X = rng.uniform(-2, 2, (7, g.dim))
        s_p0p1, s_p1q0, s_p0q0 = wf.sigma(g, refs[[0, 1, 0]], refs[[1, 2, 2]])
        got = eqv._residual_row(2.0 * s_p0p1, s_p1q0, s_p0q0, *wf.sigma(g, refs[:, None], X[None]))
        _, r_par, r_len, _ = eqv._equivalence_residuals(g, *refs, X, 1e-9)
        assert np.stack(got, axis=-1).tobytes() == np.stack([r_par, r_len], axis=-1).tobytes()


# ---------------------------------------------------------------------------
# spacelike family
# ---------------------------------------------------------------------------

def test_family_alpha_zero_is_identity():
    y = GeomVector(ORIGIN4, (0, 1, 0, 0))
    x = wf.minkowski_spacelike_family(y, 0.0, (0, 0, 1))
    assert np.array_equal(x.end, y.end)


def test_family_example_member():
    y = GeomVector(ORIGIN4, (0, 1, 0, 0))
    x = wf.minkowski_spacelike_family(y, 0.7, (0, 0, 1))
    assert np.array_equal(x.end, np.array([0.7, 1.0, 0.0, 0.7]))


def test_family_invalid_direction():
    y = GeomVector(ORIGIN4, (0, 1, 0, 0))
    with pytest.raises(wf.InvalidDirectionError):
        wf.minkowski_spacelike_family(y, 0.7, (1, 0, 0))
    with pytest.raises(wf.InvalidDirectionError):
        wf.minkowski_spacelike_family(y, 0.7, (0, 0, 2))
    with pytest.raises(wf.InvalidDirectionError, match="n_hat must be a 3-direction"):
        wf.minkowski_spacelike_family(y, 0.7, (0, 1))


def test_family_lives_in_the_4d_chart():
    with pytest.raises(wf.InvalidInputError, match="4-d Minkowski chart"):
        wf.minkowski_spacelike_family(GeomVector((0, 0, 0), (0, 1, 0)), 0.7, (0, 0, 1))


def test_family_rejects_timelike():
    with pytest.raises(wf.FamilyUndefinedError):
        wf.minkowski_spacelike_family(GeomVector(ORIGIN4, (1, 0, 0, 0)), 0.5, (0, 0, 1))


def test_family_members_equivalent_in_deformed_geometries():
    # exact equivalence in Minkowski and in any continuous deformation; a
    # jump of F at 0 (discrete shift) may turn the last-ulp rounding of
    # |n_hat|^2 into a parallel residual of exactly +-lambda0_sq
    rng = np.random.default_rng(13)
    lam = 0.01
    continuous = (MINK, Geometry.grainy(0.02, 0.05))
    discrete = Geometry.discrete(lam)
    for _ in range(50):
        y0 = rng.uniform(-0.5, 0.5)
        yv = rng.uniform(0.9, 2.0) * _unit3(rng)
        if y0 * y0 >= float(yv @ yv):
            continue
        origin = rng.uniform(-1, 1, 4)
        y = GeomVector(origin, origin + np.concatenate([[y0], yv]))
        alpha = rng.uniform(-2, 2)
        n_hat = _cone_direction(y0, yv, rng.uniform(0, 2 * math.pi))
        x = wf.minkowski_spacelike_family(y, alpha, n_hat)
        for g in continuous:
            rep = wf.is_equivalent(g, x, y)
            assert abs(rep.residual_parallel) < 1e-12
            assert abs(rep.residual_length) < 1e-12
        rep = wf.is_equivalent(discrete, x, y)
        assert abs(rep.residual_length) < 1e-12
        assert min(abs(rep.residual_parallel), abs(abs(rep.residual_parallel) - lam)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(origin=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       y0=st.floats(-0.9, 0.9), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(-10.0, 10.0), azimuth=st.floats(0.0, 2 * math.pi))
def test_family_residuals_stay_within_1e12_for_moderate_alpha(origin, y0, seed, alpha, azimuth):
    # the residuals round sigma terms of size alpha^2: within 1e-12 for |alpha| <= 10
    # and a unit-scale y (at alpha = 1e3 they reach 7.8e-10)
    yv = _unit3(np.random.default_rng(seed))
    y = GeomVector(origin, np.asarray(origin) + np.concatenate([[y0], yv]))
    x = wf.minkowski_spacelike_family(y, alpha, _cone_direction(y0, yv, azimuth))
    rep = wf.is_equivalent(MINK, x, y)
    assert abs(rep.residual_parallel) <= 1e-12 and abs(rep.residual_length) <= 1e-12


def _unit3(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _cone_direction(y0, yv, azimuth):
    nv = float(np.linalg.norm(yv))
    yhat = yv / nv
    cos_phi = y0 / nv
    sin_phi = math.sqrt(1.0 - cos_phi * cos_phi)
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(yhat)))] = 1.0
    e1 = np.cross(yhat, pick)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(yhat, e1)
    return cos_phi * yhat + sin_phi * (math.cos(azimuth) * e1 + math.sin(azimuth) * e2)


# ---------------------------------------------------------------------------
# intransitivity
# ---------------------------------------------------------------------------

def test_canonical_intransitivity_triple():
    a = GeomVector(ORIGIN4, (0.7, 1, 0, 0.7))
    b = GeomVector(ORIGIN4, (0, 1, 0, 0))
    c = GeomVector(ORIGIN4, (0.7, 1, 0, -0.7))
    assert wf.is_equivalent(MINK, a, b).equivalent
    assert wf.is_equivalent(MINK, b, c).equivalent
    assert not wf.is_equivalent(MINK, a, c).equivalent
    assert wf.scalar_product(MINK, a, c) == pytest.approx(-0.02, abs=1e-12)
    assert wf.squared_length(MINK, a) == pytest.approx(-1.0, abs=1e-15)


def test_witness_found_in_minkowski_and_verified():
    out = wf.find_intransitivity_witness(MINK, seed=7, budget=10000)
    assert out is not None
    a, b, c = out
    assert wf.is_equivalent(MINK, a, b).equivalent
    assert wf.is_equivalent(MINK, b, c).equivalent
    assert not wf.is_equivalent(MINK, a, c).equivalent


def test_witness_found_in_discrete():
    g = Geometry.discrete(0.01)
    out = wf.find_intransitivity_witness(g, seed=3, budget=10000)
    assert out is not None
    a, b, c = out
    assert wf.is_equivalent(g, a, b).equivalent
    assert wf.is_equivalent(g, b, c).equivalent
    assert not wf.is_equivalent(g, a, c).equivalent


def test_witness_none_in_euclidean():
    assert wf.find_intransitivity_witness(EUCLID3, seed=5, budget=300) is None


def test_batched_residuals_match_scalar_reports_bitwise():
    rng = np.random.default_rng(21)
    for g in (EUCLID3, MINK, Geometry.discrete(0.01), Geometry.grainy(0.01, 0.03)):
        ends = rng.uniform(-1.0, 1.0, (4, 200, g.dim))
        ends[2:, :100] = ends[:2, :100] + rng.uniform(-2.0, 2.0, g.dim)  # translated copies
        eq, r_par, r_len, scale = eqv._equivalence_residuals(g, *ends, 1e-9)
        for k in range(200):
            rep = wf.is_equivalent(g, GeomVector(ends[0, k], ends[1, k]),
                                   GeomVector(ends[2, k], ends[3, k]))
            assert (rep.equivalent, rep.residual_parallel, rep.residual_length, rep.scale) \
                == (eq[k], r_par[k], r_len[k], scale[k])


def test_witness_blocks_replay_the_per_candidate_stream(monkeypatch):
    seen = []

    def spy(g, a0, a1, b0, b1, tol):
        seen.append((a0, a1, b0, b1))
        return residuals(g, a0, a1, b0, b1, tol)

    residuals = eqv._equivalence_residuals
    monkeypatch.setattr(eqv, "_equivalence_residuals", spy)
    budget = 2 * _WITNESS_BLOCK + 7
    assert wf.find_intransitivity_witness(MINK, seed=11, budget=budget, tol=100) is None
    assert len(seen) == 12  # three tests (a~b, b~c, a~c) per block: 1, 1024, 1024, 6
    # each candidate placed from its own integer draw, kept as reference
    rng = np.random.default_rng(11)
    y, s1, s2 = np.array([[2, 3, 1, -2], [3, 2, 2, 1], [3, 2, -2, -1]], dtype=float)
    orders = list(itertools.permutations((1, 2, 3)))
    want = []
    for _ in range(budget):
        *o, order, sx, sy, sz, j, k = rng.integers([-1024] * 4 + [0] * 6,
                                                   [1025] * 4 + [6, 2, 2, 2, 4, 4])
        axes = [0, *orders[order]]
        signs = np.array([1, 1 - 2 * sx, 1 - 2 * sy, 1 - 2 * sz])
        o = np.array(o) / 1024
        e = o + 2.0 ** -j * signs * y[axes]
        a1, c1 = (e + 2.0 ** -k * signs * s[axes] for s in (s1, s2))
        want.append(np.concatenate([o, a1, o, e, o, e, o, c1]))
    ab, bc = seen[0::3], seen[1::3]
    got = np.concatenate([np.hstack([*x, *y]) for x, y in zip(ab, bc)])
    assert np.array_equal(got, np.array(want))


def test_witness_memory_does_not_grow_with_budget():
    def peak(budget):
        tracemalloc.start()
        try:
            assert wf.find_intransitivity_witness(MINK, seed=2, budget=budget, tol=100) is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    wf.find_intransitivity_witness(MINK, seed=2, budget=10, tol=100)  # first-call allocations
    small = peak(2 * _WITNESS_BLOCK)
    assert peak(16 * _WITNESS_BLOCK) < 1.2 * small


def test_witness_does_not_depend_on_the_block_size(monkeypatch):
    # at tol = 2 a Minkowski candidate is a witness only for some scales of its
    # base and shifts, so the first witness is not the first draw
    want = wf.find_intransitivity_witness(MINK, seed=4, tol=2)
    first = eqv._witness_block(np.random.default_rng(4), 1)
    assert not np.array_equal(want[1].end, first[1][0])
    for block in (1, 3, 5):
        monkeypatch.setattr(eqv, "_WITNESS_BLOCK", block)
        got = wf.find_intransitivity_witness(MINK, seed=4, tol=2)
        for x, w in zip(got, want):
            assert np.array_equal(x.origin, w.origin) and np.array_equal(x.end, w.end)


def test_euclidean_witness_draws_and_tests_nothing(monkeypatch):
    # translation is the Euclidean equivalence, and it is transitive
    calls = []
    monkeypatch.setattr(eqv, "_equivalence_residuals", lambda *args: calls.append(args))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args))
    for dim in (1, 2, 3):
        assert wf.find_intransitivity_witness(Geometry.euclidean(dim), seed=3, budget=10**9) is None
    assert calls == []
    with pytest.raises(wf.InvalidInputError, match="budget must be >= 0"):
        wf.find_intransitivity_witness(EUCLID3, budget=-1)


_DEFORMED_TABLE = [[-2.0, -2.1], [-0.5, -0.52], [0.0, 0.0], [0.5, 0.53], [2.0, 2.1]]


@pytest.mark.parametrize("g", [MINK, Geometry.discrete(0.01), Geometry.discrete(0.005),
                               Geometry.grainy(0.01, 0.03),
                               Geometry.deformed(DeformationFunction.from_table(_DEFORMED_TABLE))],
                         ids=lambda g: g.kind)
def test_every_candidate_of_the_first_block_is_a_witness(g):
    for seed in range(10):
        o, e, a1, c1 = eqv._witness_block(np.random.default_rng(seed), _WITNESS_BLOCK)
        eq_ab, *res_ab = eqv._equivalence_residuals(g, o, a1, o, e, 1e-9)
        eq_bc, *res_bc = eqv._equivalence_residuals(g, o, e, o, c1, 1e-9)
        eq_ac = eqv._equivalence_residuals(g, o, a1, o, c1, 1e-9)[0]
        assert eq_ab.all() and eq_bc.all() and not eq_ac.any()
        assert not np.any(res_ab[:2]) and not np.any(res_bc[:2])  # residuals exactly 0.0
        a, b, c = wf.find_intransitivity_witness(g, seed=seed)
        for x, y in ((a, b), (b, c)):
            rep = wf.is_equivalent(g, x, y)
            assert rep.residual_parallel == 0.0 and rep.residual_length == 0.0
        assert wf.find_intransitivity_witness(g, seed=seed, tol=100) is None


@st.composite
def _increasing_tables(draw):
    """A strictly increasing table through (0, 0), segment slopes in [0.1, 5]."""
    sides = [np.array(draw(st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(0.1, 5.0)),
                                    min_size=1, max_size=3))) for _ in range(2)]
    (dxl, ml), (dxr, mr) = (side.T for side in sides)
    left = -np.cumsum(np.column_stack([dxl, ml * dxl]), axis=0)[::-1]
    right = np.cumsum(np.column_stack([dxr, mr * dxr]), axis=0)
    return Geometry.deformed(DeformationFunction.from_table(np.vstack([left, [[0, 0]], right])))


_SUBSTRATES = st.one_of(
    st.just(MINK),
    st.floats(1e-4, 0.1).map(Geometry.discrete),
    st.tuples(st.floats(1e-4, 0.1), st.floats(1e-4, 0.5)).map(lambda t: Geometry.grainy(*t)),
    _increasing_tables(),
)


@settings(max_examples=40, deadline=None)
@given(g=_SUBSTRATES, seed=st.integers(0, 50))
def test_witness_is_exact_on_every_increasing_deformation(g, seed):
    # a~b and b~c hold exactly for every F with F(0) = 0; a~c fails for every
    # strictly increasing F, by -F(sigma_M(s1 - s2)) != 0
    a, b, c = wf.find_intransitivity_witness(g, seed=seed)
    for x, y in ((a, b), (b, c)):
        rep = wf.is_equivalent(g, x, y)
        assert rep.equivalent and rep.residual_parallel == 0.0 and rep.residual_length == 0.0
    assert not wf.is_equivalent(g, a, c, 1e-9).equivalent
    assert wf.find_intransitivity_witness(g, seed=seed, tol=100) is None
    other = wf.find_intransitivity_witness(g, seed=seed + 51)
    assert not all(np.array_equal(x.end, y.end) for x, y in zip((a, b, c), other))


# solve_equivalent on every increasing deformation: the walk reads no random
# box, and its verdicts match the multistart's second-order test

_POINT4 = st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=4, max_size=4).map(np.array)


@settings(max_examples=60, deadline=None)
@given(g=_SUBSTRATES, p0=_POINT4, p1=_POINT4, q0=_POINT4, starts=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generic_solve_reads_no_random_box(g, p0, p1, q0, starts, seed):
    assume(not np.array_equal(p0, p1))
    if (p1 - p0) @ (p1 - p0) < np.finfo(float).tiny:  # test_solve_refuses_a_p0p1_whose_square_underflows
        with pytest.raises(wf.SolverFailureError, match="underflows"):
            wf.solve_equivalent(g, p0, p1, q0)
        return
    sol = wf.solve_equivalent(g, p0, p1, q0)
    other = wf.solve_equivalent(g, p0, p1, q0, SolverConfig(starts=starts, seed=seed))
    assert json.dumps(other.to_dict()) == json.dumps(sol.to_dict())
    # the residual rows are the walk's points alone
    assert sol.diagnostics.cells_examined > 0
    assert sol.diagnostics.starts_attempted == sol.diagnostics.cells_nonempty


_GENERIC_INPUTS = (st.tuples(_POINT4, _POINT4, _POINT4)
                   | st.builds(lambda seed, cls: _class_input(np.random.default_rng(seed), cls),
                               st.integers(0, 2 ** 32 - 1), st.integers(0, 2)))


# the two criteria part at the tolerance scale
# (test_cell_walk_reports_a_surface_inside_the_dedupe_radius), so the draws are fixed
@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=_SUBSTRATES, pts=_GENERIC_INPUTS)
@example(g=MINK, pts=_CONE_APEX)
@example(g=Geometry.grainy(0.01, 0.03), pts=_CLOSE_ROOTS)
def test_cell_verdicts_match_the_second_order_test(g, pts):
    # the reference: the multistart's second-order test at the representatives
    p0, p1, q0 = pts
    assume(not np.array_equal(p0, p1))
    sol = wf.solve_equivalent(g, p0, p1, q0)
    assume(sol.representatives)
    rmap = _ResidualRows(g, p0, p1, q0)
    tol_abs = rmap.tol_abs
    dims = _manifold_dims(rmap, np.array(sol.representatives), _radius(p0, p1), tol_abs)[0]
    assert sol.manifold_dim_estimate == dims.max()
    assert sol.variance == ("single" if dims.tolist() == [0] else "multi")


_DYADIC4 = st.lists(st.integers(-16, 16).map(lambda k: k / 8.0), min_size=4, max_size=4).map(np.array)
_FRACS = st.sampled_from([0.0, 1.0, 0.5, -1.5, 2.0])
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def _degenerate_inputs(draw):
    """(p0, p1, q0) on the dyadic grid with q0 = p0 + frac (p1 - p0) on the line
    p0p1, a null P0P1 (a, a, 0, 0) under a signed permutation of the spatial
    axes (on the line too, or not), or a null W (<w0, u> = 0)."""
    p0 = draw(_DYADIC4)
    case = draw(st.sampled_from(["line", "null u", "null u, line", "null W"]))
    if case == "line":
        u = draw(_DYADIC4)
        return p0, p0 + u, p0 + draw(_FRACS) * u
    a = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0]))
    u = np.zeros(4)
    u[0], u[draw(st.integers(1, 3))] = a * draw(_SIGN), a * draw(_SIGN)
    w0 = draw(_FRACS) * u if case == "null u, line" else draw(_DYADIC4)
    if case == "null W":
        w0[0] -= eqv._mdot(w0, u) / u[0]
    return p0, p0 + u, p0 + w0


@settings(max_examples=200, deadline=None)
@given(g=_SUBSTRATES, pts=_degenerate_inputs())
def test_every_representative_of_a_degenerate_input_meets_tol(g, pts):
    # q0 on the line p0p1, a null P0P1 or a null W are walked like any other
    # input: every representative passes the pairwise test at tol, with the
    # reported residual rows bit for bit
    p0, p1, q0 = pts
    assume(not np.array_equal(p0, p1))
    sol = wf.solve_equivalent(g, p0, p1, q0)
    d = sol.diagnostics
    assert d.cells_examined > 0 and d.starts_attempted == d.cells_nonempty
    assert 0 <= sol.manifold_dim_estimate <= 3
    assert len(sol.representatives) == len(sol.residuals) == d.converged_count
    for x, r in zip(sol.representatives, sol.residuals):
        rep = wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x))
        assert rep.equivalent
        assert np.array([rep.residual_parallel, rep.residual_length]).tobytes() == np.array(r).tobytes()


@pytest.mark.parametrize("g", _CELL_GEOMS, ids=["minkowski", "discrete", "grainy", "table"])
def test_null_p0p1_at_q0_on_its_line_is_a_line(g):
    # at q0 = p0, sigma_M(p1, X) = 0 and <Y, Y> = <u, u> = 0 with u null: Y is a
    # multiple of u.  Under the discrete F the line sits on the jump, and its
    # point is q0 itself, where sigma_M(p1, X) = 0 in floats
    sol = wf.solve_equivalent(g, ORIGIN4, (1, 1, 0, 0), ORIGIN4)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 1)
    [x] = sol.representatives
    assert x[0] == x[1] and x[2] == x[3] == 0.0
    assert (x[0] == 0.0) == (g.kind == "discrete")
    assert sol.diagnostics.jacobian_rank == 1


@pytest.mark.parametrize("p1, q0", [((0.0, 0.0, 0.0, 4e-185), ORIGIN4), ((1e-200, 0, 0, 0), (1, 2, 3, 4)),
                                    ((1.0, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0))])
def test_solve_refuses_a_p0p1_whose_square_underflows(p1, q0):
    # a subnormal |p1 - p0|^2 or an overflowing |q0 - p_k|^2 leaves the walk no scale
    # for its points: a numerical failure, not a ZeroDivisionError or a NaN point
    with np.errstate(over="ignore"), pytest.raises(wf.SolverFailureError, match="underflows or a squared"):
        wf.solve_equivalent(MINK, ORIGIN4, p1, q0)


_NULL_W = (ORIGIN4, np.array([0.5, 0.0, 0.5, 0.0]), np.array([0.25, 0.25, 0.25, 0.0]))


@pytest.mark.parametrize("g", _CELL_GEOMS + [Geometry.deformed(DeformationFunction.from_table(_DEFORMED_TABLE))],
                         ids=["minkowski", "discrete", "grainy", "kink-table", "table"])
def test_null_w_line_is_represented_near_q0(g):
    # u is null and <w0, u> = 0, so W = span(w0, u) is null and K = 0: F's
    # injectivity forces sigma_M(p0, X) = sigma_M(p1, X), i.e. <Y, u> = 0, and
    # <Y, Y> = 0 then leaves the line q0 + t u under every F.  The walk used to
    # take rounding slivers of F's cells for 2-dimensional graph pieces and
    # represent them 5e5 (grainy) and 1e7-2e8 (table) from q0
    p0, p1, q0 = _NULL_W
    sol = wf.solve_equivalent(g, p0, p1, q0)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 1)
    bound = 10.0 * (np.linalg.norm(p1 - p0) + np.linalg.norm(q0 - p0))
    for x in sol.representatives:
        assert np.linalg.norm(x - q0) <= bound
        assert wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x)).equivalent


def _null_w_graph_input(rng):
    # a spacelike u and w0 = n + a u with n null and <n, u> = 0: W is null, K != 0
    u, n = np.zeros(4), np.zeros(4)
    k, j = rng.permutation([1, 2, 3])[:2]
    u[k] = rng.integers(1, 9) / 8.0
    n[0] = n[j] = rng.integers(1, 9) / 8.0
    p0 = rng.integers(-8, 9, 4) / 8.0
    return p0, p0 + u, p0 + n + rng.integers(-8, 9) / 8.0 * u


def test_graph_piece_takes_its_point_nearest_q0(monkeypatch):
    # where rho >= -tol_rho on a graph piece's whole range its point is the
    # nearest measured point of the graph, never farther than the point over
    # the nearest Y_c that the walk used to take (1e5-1e8 from q0 near h = 0)
    graph_s, seen = eqv._graph_s, []

    def spy(P, D, h0, h1, lo, hi, A, B, C, near, reach, x, e):
        s = graph_s(P, D, h0, h1, lo, hi, A, B, C, near, reach, x, e)
        margin = 0.25 * min(hi - lo, reach)
        s0 = min(max(near, lo + margin), hi - margin)
        for x in (s, s0):
            with np.errstate(divide="ignore", invalid="ignore"):  # s0 may sit on the pole h = 0
                y = np.divide((A * x + B) * x + C, 2.0 * (h0 + x * h1))
                Z = np.add(P, x * np.array(D)) + y * np.array(e)
            seen.append(np.linalg.norm(Z) if np.isfinite(Z).all() else np.inf)
        return s

    monkeypatch.setattr(eqv, "_graph_s", spy)
    rng = np.random.default_rng(4)
    for _ in range(40):
        p0, p1, q0 = _null_w_graph_input(rng)
        for g in _CELL_GEOMS:
            sol = wf.solve_equivalent(g, p0, p1, q0)
            for x in sol.representatives:
                assert wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x)).equivalent
    assert len(seen) >= 20
    for got, old in zip(seen[::2], seen[1::2]):
        assert np.isfinite(got) and got <= old


@pytest.mark.parametrize("p0, p1, q0", [
    (ORIGIN4, (1e300, 0, 0, 0), ORIGIN4),  # sigma(p0, p1) overflows
    ((-1e308, 0, 0, 0), (1e308, 0, 0, 0), ORIGIN4),  # so does p1 - p0
    (ORIGIN4, (1.2e154, 1.1e154, 0, 0), ORIGIN4),  # sigma_M is finite, |p1 - p0|^2 is not
    (ORIGIN4, (1, 0, 0, 0), (1e200, 0, 0, 0)),  # |q0 - p0|^2 overflows
])
def test_overflowing_solve_raises_without_a_warning(p0, p1, q0):
    # it used to print numpy's overflow RuntimeWarnings before it raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.SolverFailureError, match="overflows"):
            wf.solve_equivalent(Geometry.discrete(0.02), p0, p1, q0)


def test_null_p0p1_off_its_line_is_a_line():
    # under the identity F, <Y, Y> = 0 and <Y, u> = <u, u> = 0 for null u: the
    # line q0 + t u again, now cut by F's breakpoint 0 into three cells' pieces
    p1, q0 = np.array([-0.125, -0.125, 0.0, 0.0]), np.array([0.0, 0.5, 0.0, 0.0])
    sol = wf.solve_equivalent(MINK, ORIGIN4, p1, q0)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 1)
    assert len(sol.representatives) == sol.diagnostics.cells_nonempty == 3
    for x in sol.representatives:
        assert abs((x - q0)[0] - (x - q0)[1]) <= 1e-15 and x[2] == x[3] == 0.0


def test_a_cell_parallel_to_the_line_holds_a_3_dimensional_piece():
    # q0 = p0 - u: sigma_M(p0, X) = -1 - tau and sigma_M(p1, X) = -2.5 - 2 tau, and
    # where F has slope 2 and 1 on them (-1 < sigma_M(p0, X) < -0.75) the
    # parallelism equation reads 1 = K for every tau: over -0.25 < tau < 0 each
    # tau carries a 2-dimensional hyperboloid of u's complement
    g = Geometry.deformed(DeformationFunction.from_table(
        [[-3, -3.5], [-2.5, -3], [-2, -2.5], [-1, -2], [-0.75, -1.5], [-0.5, -0.5], [0, 0], [1, 1]]))
    p0, p1, q0 = np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0, 0.0])
    sol = wf.solve_equivalent(g, p0, p1, q0)
    assert (sol.variance, sol.manifold_dim_estimate) == ("multi", 3)
    assert sol.diagnostics.jacobian_rank == 1
    rng = np.random.default_rng(27)
    for tau, y2, y3 in zip(rng.uniform(-0.25, 0.0, 50), *rng.uniform(1.0, 2.0, (2, 50))):
        y0 = math.sqrt(tau * tau - 1.0 + y2 * y2 + y3 * y3)  # <Y', Y'> = <u, u> - tau^2 / <u, u>
        x = GeomVector(q0, q0 - tau * p1 + np.array([y0, 0.0, y2, -y3]))
        assert wf.is_equivalent(g, GeomVector(p0, p1), x).equivalent


def test_q0_near_the_line_p0p1_is_walked_in_its_plane():
    # q0 1e-9 off the line: the plane's map is ill-conditioned, but its
    # Euclidean least-norm point comes from the SVD, never from a Gram matrix
    # that squares the condition number (1e18 rounds it singular)
    for g in _CELL_GEOMS:
        p0, p1, q0 = ORIGIN4, (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1e-9, 1.0)
        sol = wf.solve_equivalent(g, p0, p1, q0)
        assert sol.diagnostics.cells_examined == len(eqv._cells(g.deformation)[1]) ** 2
        assert sol.representatives
        for x in sol.representatives:
            assert wf.is_equivalent(g, GeomVector(p0, p1), GeomVector(q0, x)).equivalent


def _walk(g, p0, p1, q0):
    """(points, dimensions, ranks, cells examined) of the slope-cell walk, as
    one solve ran it: a spy on ``_cell_starts``, whatever the solve concluded."""
    walks = []
    walk = eqv._cell_starts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eqv, "_cell_starts", lambda *args: walks.append(walk(*args)) or walks[-1])
        with contextlib.suppress(wf.SolverFailureError):
            wf.solve_equivalent(g, p0, p1, q0)
    X, dims, ranks, examined = walks[0]
    return X, np.array(dims, dtype=int), np.array(ranks, dtype=int), examined


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=_SUBSTRATES, pts=_GENERIC_INPUTS)
@example(g=MINK, pts=_CONE_APEX)
def test_the_point_of_a_surface_is_a_smooth_one(g, pts):
    # never the apex of a cone: the Jacobian has rank 2 at the point of every
    # 2-dimensional piece.  An apex reads s2 / s1 <= 4e-16, rounding; a
    # surface's point ~1e4 from q0 reads ~1e-8, both rows tending to eta X
    p0, p1, q0 = pts
    # a P0P1 whose square underflows is refused (test_solve_refuses_a_p0p1_whose_square_underflows)
    assume((p1 - p0) @ (p1 - p0) >= np.finfo(float).tiny)
    X, dims, ranks, _ = _walk(g, p0, p1, q0)
    assert (ranks[dims != 2] == 1).all()
    # the one exception: the discrete F's jump, whose piece is represented by its apex
    assert (ranks[dims == 2] == 2).all() or g.kind == "discrete"
    S = np.linalg.svd(_jacobian(_ResidualRows(g, p0, p1, q0), X[ranks == 2]),
                      compute_uv=False).reshape(-1, 2)
    assert (S[:, 1] > 1e-12 * S[:, 0]).all()


@pytest.mark.parametrize("arg", ["budget", "seed"])
def test_witness_rejects_a_negative_budget_or_seed(arg):
    # a negative budget used to search nothing and report no witness
    with pytest.raises(wf.InvalidInputError, match=f"{arg} must be >= 0"):
        wf.find_intransitivity_witness(MINK, **{arg: -5 if arg == "budget" else -1})


def test_witness_deterministic():
    w1 = wf.find_intransitivity_witness(MINK, seed=9)
    w2 = wf.find_intransitivity_witness(MINK, seed=9)
    assert np.array_equal(w1[0].end, w2[0].end)
    assert np.array_equal(w1[2].end, w2[2].end)


def test_null_shift_rows_are_spacelike_family_members():
    m = 400
    o, e, a1, c1 = eqv._witness_block(np.random.default_rng(5), m)
    for i in range(m):
        b = GeomVector(o[i], e[i])
        assert wf.squared_length(MINK, b) < 0
        for end in (a1[i], c1[i]):
            shift = end - e[i]
            x = wf.minkowski_spacelike_family(b, shift[0], shift[1:] / shift[0])
            assert np.abs(end - x.end).max() <= 1e-14
            rep = wf.is_equivalent(MINK, GeomVector(o[i], end), b)
            assert rep.residual_parallel == 0.0 and rep.residual_length == 0.0
        # a and c differ by the spacelike s1 - s2: r_par = -sigma_M(s1 - s2) > 0
        rep = wf.is_equivalent(MINK, GeomVector(o[i], a1[i]), GeomVector(o[i], c1[i]))
        assert rep.residual_parallel > 0 and not rep.equivalent


# ---------------------------------------------------------------------------
# collinearity and straights
# ---------------------------------------------------------------------------

def test_collinear_parallel_segments():
    g2 = Geometry.euclidean(2)
    rep = wf.is_collinear(g2, GeomVector((0, 0), (1, 0)), GeomVector((5, 0), (7, 0)))
    assert rep.collinear


def test_collinear_orthogonal_false():
    g2 = Geometry.euclidean(2)
    rep = wf.is_collinear(g2, GeomVector((0, 0), (1, 0)), GeomVector((0, 0), (0, 1)))
    assert not rep.collinear
    assert rep.residual == 1.0


def test_collinear_minkowski_scalar_multiple():
    rep = wf.is_collinear(MINK, GeomVector(ORIGIN4, (1, 0, 0, 0)),
                          GeomVector(ORIGIN4, (2, 0, 0, 0)))
    assert rep.collinear


def test_line_membership_euclidean():
    axis = GeomVector((0, 0, 0), (1, 0, 0))
    assert wf.line_membership(EUCLID3, (0, 0, 1), axis, (2, 0, 1))
    assert not wf.line_membership(EUCLID3, (0, 0, 1), axis, (2, 1, 1))


def test_line_membership_zero_vector_convention():
    axis = GeomVector((0, 0, 0), (1, 0, 0))
    assert wf.line_membership(EUCLID3, (0, 0, 1), axis, (0, 0, 1))


def test_line_membership_needs_a_direction():
    # a zero direction vector spans no straight: collinearity to it holds for every r
    with pytest.raises(wf.InvalidInputError, match="distinct points"):
        wf.line_membership(EUCLID3, (0, 0, 1), GeomVector((1, 0, 0), (1, 0, 0)), (2, 0, 1))


def test_line_membership_minkowski_thick_straight():
    # the straight along a spacelike vector contains null-shifted points:
    # a genuinely non-one-dimensional straight
    axis = GeomVector(ORIGIN4, (0, 1, 0, 0))
    assert wf.line_membership(MINK, ORIGIN4, axis, (0.7, 1, 0, 0.7))
    assert wf.line_membership(MINK, ORIGIN4, axis, (0, 2, 0, 0))
    assert not wf.line_membership(MINK, ORIGIN4, axis, (0, 1, 1, 0))


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

def test_segment_midpoint_member():
    g2 = Geometry.euclidean(2)
    rep = wf.segment_membership(g2, (0, 0), (2, 0), (1, 0))
    assert rep.member and rep.defect == 0.0 and rep.in_domain


def test_segment_off_axis_not_member():
    g2 = Geometry.euclidean(2)
    rep = wf.segment_membership(g2, (0, 0), (2, 0), (1, 0.1))
    assert not rep.member and rep.defect > 0


def test_segment_discrete_closed_form():
    # 2 sqrt(1.04 - r^2) = sqrt(4.04)  =>  r^2 = 0.03; the axis point is
    # not a member of the deformed segment
    g = Geometry.discrete(0.02)
    p0, p1 = ORIGIN4, (2, 0, 0, 0)
    r_exact = math.sqrt(0.03)
    assert wf.segment_membership(g, p0, p1, (1, r_exact, 0, 0)).member
    axis = wf.segment_membership(g, p0, p1, (1, 0, 0, 0))
    assert not axis.member and axis.defect > 0

    # cross-check the closed form with a 1-d root finder on the defect
    f = lambda r: wf.segment_membership(g, p0, p1, (1, r, 0, 0), 1e-12).defect
    r_root = brentq(f, 0.01, 0.9, xtol=1e-14)
    assert abs(r_root - r_exact) < 1e-10


def test_segment_domain_flag():
    rep = wf.segment_membership(MINK, ORIGIN4, (1, 0, 0, 0), (0, 5, 0, 0))
    assert not rep.member and not rep.in_domain and math.isnan(rep.defect)
    # spacelike base segment: out of domain entirely
    rep = wf.segment_membership(MINK, ORIGIN4, (0, 1, 0, 0), (0, 0.5, 0, 0))
    assert not rep.in_domain


# ---------------------------------------------------------------------------
# tube sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [("stations", -1), ("directions", -1)])
def test_tube_config_rejects_counts_the_sampler_cannot_use(field, value):
    with pytest.raises(wf.InvalidInputError, match=field):
        TubeSamplerConfig(**{field: value})
    with pytest.raises(wf.InvalidInputError, match=field):
        TubeSamplerConfig.from_dict({field: value})


@pytest.mark.parametrize("cls,field,value", [
    (SolverConfig, "seed", -1), (TubeSamplerConfig, "seed", -1)])
def test_config_rejects_negative_widths_and_seeds(cls, field, value):
    # a negative seed ended in a numpy traceback
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be >= 0"):
        cls(**{field: value})
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be >= 0"):
        cls.from_dict({field: value})


def test_tube_config_accepts_the_smallest_counts():
    cfg = TubeSamplerConfig(stations=0, directions=0)
    tube = wf.sample_segment_tube(Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0), cfg)
    assert tube.radii.shape == (0, 0) and tube.points.shape[0] == 0
    tube = wf.sample_segment_tube(Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0),
                                  TubeSamplerConfig(stations=3, directions=2))
    assert tube.radii.shape == (3, 2)


def test_tube_euclidean_profile_is_zero():
    tube = wf.sample_segment_tube(EUCLID3, (0, 0, 0), (2, 0, 0),
                                  TubeSamplerConfig(stations=17, directions=6, seed=0))
    assert np.nanmax(np.abs(tube.profile)) <= 1e-6
    assert np.isfinite(tube.profile).all()


def test_tube_discrete_mid_station_radius():
    g = Geometry.discrete(0.02)
    cfg = TubeSamplerConfig(stations=17, directions=6, seed=1)
    tube = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0), cfg)
    mid = tube.profile[8]  # station fraction 0.5, chart position t = 1
    assert abs(mid - math.sqrt(0.03)) < 1e-6
    assert tube.arc_positions[8] == 1.0
    # interior stations are strictly thick
    assert np.all(tube.profile[4:13] > 0)


def test_tube_undeformed_grainy_control():
    g = Geometry.grainy(0.0, 1.0)  # zero deformation: plain Minkowski
    tube = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0),
                                  TubeSamplerConfig(stations=9, directions=4, seed=0))
    assert np.nanmax(np.abs(tube.profile)) <= 1e-6


def test_tube_empty_stations_not_fatal():
    # max_radius below the tube radius: interior stations cannot bracket a
    # crossing and are marked empty
    g = Geometry.discrete(0.02)
    cfg = TubeSamplerConfig(stations=9, directions=4, seed=0, max_radius=0.05)
    tube = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0), cfg)
    assert np.isnan(tube.profile[4])
    assert np.isfinite(tube.profile[0])  # end stations sit on the object
    assert tube.empty_stations == np.isnan(tube.profile).sum() >= 1
    assert tube.rays_without_crossing == np.isnan(tube.radii).sum() >= 4


def test_readme_tube_counts_its_empty_stations_and_rays():
    # stations 1-6 and 57-62 of 64: every ray there sees the defect jump at
    # F's breakpoint, never cross 0 inside a cell
    tube = wf.sample_segment_tube(Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0))
    assert (tube.empty_stations, tube.rays_without_crossing) == (12, 192)
    assert np.flatnonzero(np.isnan(tube.profile)).tolist() == [*range(1, 7), *range(57, 63)]


def test_tube_requires_positive_sigma():
    with pytest.raises(wf.InvalidInputError):
        wf.sample_segment_tube(MINK, ORIGIN4, (0, 1, 0, 0))


@pytest.mark.parametrize("p0, p1", [
    (ORIGIN4, (1e300, 0, 0, 0)),  # sigma(p0, p1) overflows
    ((-1e308, 0, 0, 0), (1e308, 0, 0, 0)),  # so does p1 - p0
    (ORIGIN4, (1.2e154, 1.1e154, 0, 0)),  # sigma is finite, |p1 - p0| is not
])
def test_tube_of_an_overflowing_segment_raises_without_a_warning(p0, p1):
    # it used to return NaN arc positions and an empty cloud
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(wf.WorldFunctionError, match="overflows") as info:
            wf.sample_segment_tube(Geometry.discrete(0.02), p0, p1)
    assert type(info.value) is wf.WorldFunctionError
    assert caught == []


@pytest.mark.parametrize("make", [lambda: Geometry.discrete(0.02),
                                  lambda: Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE))],
                         ids=["readme", "table"])
def test_tube_reads_the_cells_held_for_its_F(make):
    # the first tube of an F fills its cells and later ones read them: the
    # samples are byte-identical, and sampling leaves the cells as a new F has them
    g = make()
    tubes = [wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0)) for _ in range(2)]
    tubes.append(wf.sample_segment_tube(make(), ORIGIN4, (2, 0, 0, 0)))
    assert np.isfinite(tubes[0].radii).any()
    for name in ("fractions", "arc_positions", "base_points", "radii", "profile", "points"):
        assert len({getattr(t, name).tobytes() for t in tubes}) == 1, name
    fresh = eqv._cells(make().deformation)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(eqv._cells(g.deformation), fresh))


def test_tube_needs_a_transverse_direction():
    # a 1-d chart has none: the sampler used to repeat each station once per direction
    with pytest.raises(wf.InvalidInputError, match="no transverse direction"):
        wf.sample_segment_tube(Geometry.euclidean(1), (0,), (1,))
    assert wf.sample_segment_tube(Geometry.euclidean(2), (0, 0), (1, 0)).points.shape[1] == 4


def _scalar_defect(g, p0, p1, r):
    s_ar, s_rb, s_ab = wf.sigma(g, p0, r), wf.sigma(g, r, p1), wf.sigma(g, p0, p1)
    if min(s_ar, s_rb, s_ab) < 0:
        return math.nan
    return math.sqrt(2.0 * s_ar) + math.sqrt(2.0 * s_rb) - math.sqrt(2.0 * s_ab)


def _brentq_tube_radii(g, p0, p1, cfg, scan=1025):
    """Tube radii by a sampler-independent reference: per ray, a scan of the
    defect at ``scan`` radii, then scalar brentq on each cell with finite ends
    of opposite sign in turn, keeping the first root that is a segment member
    (a bracketed jump of F is not)."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    defect_tol = cfg.tol * math.sqrt(2.0 * wf.sigma(g, p0, p1))
    u = p1 - p0
    length = float(np.linalg.norm(u))
    r_max = cfg.max_radius if cfg.max_radius is not None else length
    _, _, vt = np.linalg.svd((u / length)[None, :])
    raw = np.random.default_rng(cfg.seed).normal(size=(cfg.directions, g.dim - 1))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw @ vt[1:]
    r_grid = np.linspace(0.0, r_max, scan)
    radii = np.full((cfg.stations, cfg.directions), np.nan)
    for si, frac in enumerate(np.linspace(0.0, 1.0, cfg.stations)):
        base = p0 + frac * u
        if abs(_scalar_defect(g, p0, p1, base)) <= defect_tol:
            radii[si] = 0.0
            continue
        # the scan alone is one broadcast kernel call per station
        vals = wf.triangle_defect(g, p0, p1, base + r_grid[:, None, None] * dirs).T
        for di, d in enumerate(dirs):
            f = lambda r: _scalar_defect(g, p0, p1, base + r * d)  # noqa: E731
            a, b = vals[di, :-1], vals[di, 1:]
            for k in np.flatnonzero(np.isfinite(a) & np.isfinite(b) & (a * b <= 0.0)):
                r = brentq(f, r_grid[k], r_grid[k + 1], xtol=1e-13, rtol=1e-15)
                if wf.segment_membership(g, p0, p1, base + r * d, cfg.tol).member:
                    radii[si, di] = r
                    break
    return radii


@pytest.mark.parametrize("g,p0,p1,cfg", [
    (Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0), TubeSamplerConfig(stations=33, directions=8)),
    (Geometry.discrete(0.01), (0.1, 0.2, -0.3, 0.1), (3, 0.5, 0.2, -0.4),
     TubeSamplerConfig(stations=9, directions=6, seed=3)),
    (Geometry.grainy(0.01, 0.03), ORIGIN4, (2, 0, 0, 0), TubeSamplerConfig(stations=17, directions=6)),
    (EUCLID3, (0, 0, 0), (2, 0, 0), TubeSamplerConfig(stations=17, directions=6)),
    (Geometry.discrete(0.02), ORIGIN4, (2, 0, 0, 0), TubeSamplerConfig()),
], ids=["discrete", "discrete-tilted", "grainy", "euclidean", "readme"])
def test_tube_radii_match_brentq_reference(g, p0, p1, cfg):
    got = wf.sample_segment_tube(g, p0, p1, cfg).radii
    want = _brentq_tube_radii(g, p0, p1, cfg)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isfinite(want).any()
    assert np.nanmax(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("g,p0,p1,cfg", [
    (Geometry.deformed(DeformationFunction.from_table(_KINK_TABLE)), ORIGIN4, (2, 0, 0, 0),
     TubeSamplerConfig(stations=17, directions=8)),
    (Geometry.grainy(0.01, 0.03), (0.1, 0.2, -0.3, 0.1), (3, 0.5, 0.2, -0.4),
     TubeSamplerConfig(stations=17, directions=6, seed=3)),
    (Geometry.grainy(0.01, 0.03), ORIGIN4, (2, 0, 0, 0), TubeSamplerConfig()),
], ids=["table", "grainy-tilted", "grainy-readme"])
def test_mixed_slope_tube_radii_match_brentq_reference(g, p0, p1, cfg):
    # where the two sides of a ray sit in cells of F of unequal slopes the
    # boundary is a quartic in r, found by the sampler's safeguarded Newton;
    # the table's brackets end on the light cone, where the defect's slope is unbounded
    tube = wf.sample_segment_tube(g, p0, p1, cfg)
    want = _brentq_tube_radii(g, p0, p1, cfg)
    assert np.array_equal(np.isnan(tube.radii), np.isnan(want))
    assert np.nanmax(np.abs(tube.radii - want)) <= 1e-12
    xs, m, _, _ = eqv._cells(g.deformation)
    on = tube.points[tube.points[:, 1] > 0.0, 2:]
    sm = np.array([wf.sigma(MINK, p0, on), wf.sigma(MINK, on, p1)])
    mixed = m[np.searchsorted(xs, sm[0])] != m[np.searchsorted(xs, sm[1])]
    assert mixed.any()


@pytest.mark.parametrize("g", [Geometry.discrete(0.02), Geometry.discrete(0.01)],
                         ids=["readme", "discrete-0.01"])
def test_every_tube_point_is_a_segment_member(g):
    # a ray meeting the light cone of p0 or p1 at a scan radius used to have
    # its root placed on F's jump there: 57 of 889 README points had |defect| up to 0.17
    tube = wf.sample_segment_tube(g, ORIGIN4, (2, 0, 0, 0))
    assert tube.points.shape[0] > 800
    for row in tube.points:
        assert wf.segment_membership(g, ORIGIN4, (2, 0, 0, 0), row[2:]).member, row


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tube_points_are_segment_members(g, data):
    coord = st.floats(-2.0, 2.0)
    p0, step = (np.array(data.draw(st.lists(coord, min_size=g.dim, max_size=g.dim)))
                for _ in range(2))
    if g.has_minkowski_substrate:  # timelike: |dt| exceeds |dx| by a margin
        margin = data.draw(st.floats(0.05, 2.0))
        step[0] = math.copysign(float(np.linalg.norm(step[1:])) + margin, step[0])
    elif np.linalg.norm(step) < 0.05:
        step[0] = 1.0
    cfg = TubeSamplerConfig(stations=9, directions=4, seed=data.draw(st.integers(0, 99)))
    tube = wf.sample_segment_tube(g, p0, p0 + step, cfg)
    for row in tube.points:
        assert wf.segment_membership(g, p0, p0 + step, row[2:]).member, row


def test_package_imports_and_samples_tubes_without_scipy():
    src = str(Path(wf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import worldfunc as wf\n"
            "t = wf.sample_segment_tube(wf.Geometry.discrete(0.02), (0, 0, 0, 0), (2, 0, 0, 0),\n"
            "                           wf.TubeSamplerConfig(stations=9, directions=4))\n"
            "assert abs(t.profile[4] - 0.03 ** 0.5) < 1e-6, t.profile\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_segment_members_are_line_members_euclidean():
    rng = np.random.default_rng(14)
    p0, p1 = np.array([0.0, 0, 0]), np.array([2.0, 1, -1])
    axis = GeomVector(p0, p1)
    for _ in range(200):
        t = rng.uniform(0, 1)
        r = p0 + t * (p1 - p0)
        assert wf.segment_membership(EUCLID3, p0, p1, r, 1e-9).member
        assert wf.line_membership(EUCLID3, p0, axis, r, 1e-9)


# ---------------------------------------------------------------------------
# configuration round trips
# ---------------------------------------------------------------------------

_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_INTS = st.integers(0, 2**63)
# strategies of the valid values of each config field
_CONFIG_FIELDS = {
    SolverConfig: dict(starts=st.integers(1, 2**63), max_iter=_INTS, tol=_NONNEGATIVE, seed=_INTS),
    TubeSamplerConfig: dict(stations=_INTS, directions=_INTS, tol=_NONNEGATIVE, seed=_INTS,
                            max_radius=st.none() | _NONNEGATIVE),
    wf.UnitConstants: dict(hbar=_POSITIVE, c=_POSITIVE, b=_POSITIVE),
    # a link_sigma_m whose link length sqrt(2 sigma) or tilt cosh is not finite is invalid
    wf.ChainParams: dict(geometry=st.sampled_from(EVERY_KIND[1:]),
                         link_sigma_m=st.floats(1e-300, sys.float_info.max / 2),
                         steps=st.integers(1, 2**63), ensemble=st.integers(1, 2**63),
                         seed=_INTS),
}


@pytest.mark.parametrize("cls", list(_CONFIG_FIELDS), ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_serialization_round_trips(cls, data):
    cfg = cls(**data.draw(st.fixed_dictionaries(_CONFIG_FIELDS[cls])))
    back = cls.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.to_dict() == cfg.to_dict()
    if cls is not wf.ChainParams:  # a geometry compares by identity
        assert back == cfg


def _field_value(valid):
    """A field's valid values, the same as text or a float, and values of no field's type."""
    return st.one_of(valid, valid.map(lambda v: v.to_dict() if hasattr(v, "to_dict") else str(v)),
                     st.integers(-3, 3).map(float), st.none(), st.booleans(),
                     st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=1),
                     st.just(10**400))


def _built(make):
    """The dict of the config make() builds, or the message of its InvalidInputError."""
    try:
        return make().to_dict()
    except wf.InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", list(_CONFIG_FIELDS), ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_constructor_and_from_dict_agree(cls, data):
    # one construction path: equal configs or the same InvalidInputError, never a raw error
    d = data.draw(st.fixed_dictionaries(
        {k: _field_value(v) for k, v in _CONFIG_FIELDS[cls].items()}))
    built = _built(lambda: cls(**d))
    assert built == _built(lambda: cls.from_dict(d))
    if isinstance(built, dict):  # numeric text and integral floats are stored as their type
        cfg = cls(**d)
        for name, kind, optional, _ in cls._fields():
            value = getattr(cfg, name)
            assert type(value) is kind or (optional and value is None)


_RAW_ERRORS = {
    "geometry-without-its-key": (lambda: Geometry.from_dict({"kind": "discrete"}),
                                 "a discrete geometry needs lambda0_sq"),
    "geometry-with-a-null-key": (lambda: Geometry.from_dict(
        {"kind": "grainy", "lambda0_sq": None, "sigma0": 0.03}), "a grainy geometry needs lambda0_sq"),
    "geometry-not-a-mapping": (lambda: Geometry.from_dict([1]), "geometry"),
    "grainy-without-sigma0": (lambda: Geometry.from_dict({"kind": "grainy", "lambda0_sq": 0.01}),
                              "sigma0"),
    "deformed-without-table": (lambda: Geometry.from_dict({"kind": "deformed"}), "F_table"),
    "chain-without-link": (lambda: wf.ChainParams.from_dict(
        {"geometry": MINK.to_dict(), "steps": 3}), "link_sigma_m"),
    "chain-geometry-text": (lambda: wf.ChainParams.from_dict(
        {"geometry": "x", "link_sigma_m": 0.5, "steps": 3}), "geometry"),
    "solver-tol-list": (lambda: SolverConfig.from_dict({"tol": [1]}), "tol"),
    "units-hbar-list": (lambda: wf.UnitConstants.from_dict({"hbar": [1]}), "hbar"),
    "solver-tol-text": (lambda: SolverConfig(tol="1e-8x"), "tol"),
    "solver-starts-fraction": (lambda: SolverConfig(starts=2.5), "starts"),
    "tube-stations-fraction": (lambda: TubeSamplerConfig(stations=2.5), "stations"),
    "chain-steps-fraction": (lambda: wf.ChainParams(geometry=MINK, link_sigma_m=0.5, steps=2.5),
                             "steps"),
    "chain-link-text": (lambda: wf.ChainParams(geometry=MINK, link_sigma_m="half", steps=3),
                        "link_sigma_m"),
    "units-hbar-text": (lambda: wf.UnitConstants(hbar="two"), "hbar"),
    "witness-budget-fraction": (lambda: wf.find_intransitivity_witness(MINK, budget=2.5),
                                "budget"),
    "witness-seed-fraction": (lambda: wf.find_intransitivity_witness(MINK, seed=1.5), "seed"),
}


@pytest.mark.parametrize("name", sorted(_RAW_ERRORS))
def test_bad_input_is_an_input_error_naming_its_field(name):
    # each used to end in a KeyError, AttributeError, TypeError or ValueError, some only
    # inside numpy after the config had been built
    make, field = _RAW_ERRORS[name]
    with pytest.raises(wf.InvalidInputError, match=field):
        make()


# ---------------------------------------------------------------------------
# tolerance arguments: finite and >= 0, checked by the function that takes them
# ---------------------------------------------------------------------------

_A4 = GeomVector(ORIGIN4, (1, 0.5, 0, 0))
_SK3 = wf.Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
_CHAIN = wf.generate_chain(wf.ChainParams(geometry=Geometry.discrete(0.01), link_sigma_m=0.5,
                                          steps=2))
_TOL_TAKERS = {
    "is_equivalent": lambda tol: wf.is_equivalent(MINK, _A4, _A4, tol),
    "is_collinear": lambda tol: wf.is_collinear(MINK, _A4, _A4, tol),
    "line_membership": lambda tol: wf.line_membership(MINK, ORIGIN4, _A4, (2, 1, 0, 0), tol),
    "segment_membership": lambda tol: wf.segment_membership(MINK, ORIGIN4, (2, 0, 0, 0),
                                                            (1, 0, 0, 0), tol),
    "minkowski_spacelike_family": lambda tol: wf.minkowski_spacelike_family(
        GeomVector(ORIGIN4, (0, 1, 0, 0)), 0.3, (0, 1, 0), tol),
    "find_intransitivity_witness": lambda tol: wf.find_intransitivity_witness(
        MINK, budget=0, tol=tol),
    "object_membership": lambda tol: wf.object_membership(
        EUCLID3, _SK3, wf.Envelope.cylinder(), (1, 0, 0.5), tol),
    "skeletons_equivalent": lambda tol: wf.skeletons_equivalent(EUCLID3, _SK3, _SK3, tol),
    "verify_link_equivalence": lambda tol: wf.verify_link_equivalence(
        Geometry.discrete(0.01), _CHAIN, tol),
    "check_triangle_axiom": lambda tol: wf.check_triangle_axiom(
        EUCLID3, [[(0, 0, 0), (2, 0, 0), (1, 0, 0)]], tol),
    "euclidean_angle": lambda tol: wf.euclidean_angle(
        EUCLID3, GeomVector((0, 0, 0), (1, 0, 0)), GeomVector((0, 0, 0), (0, 1, 0)), tol),
}


@pytest.mark.parametrize("name", sorted(_TOL_TAKERS))
@settings(max_examples=25, deadline=None)
@given(tol=st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.nan, math.inf]))
@example(tol=-1e-9)
@example(tol=math.nan)
@example(tol=math.inf)
@example(tol=-math.inf)
def test_negative_or_non_finite_tolerance_is_rejected(name, tol):
    # a negative tol used to make is_equivalent(g, a, a) report a not equivalent to itself
    with pytest.raises(wf.InvalidInputError, match="tol must be"):
        _TOL_TAKERS[name](tol)


@pytest.mark.parametrize("name", sorted(_TOL_TAKERS))
def test_zero_tolerance_is_accepted(name):
    _TOL_TAKERS[name](0.0)


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_equivalent_is_reflexive_at_zero_tolerance(g, data):
    a = _draw_vector(data, g)
    assert wf.is_equivalent(g, a, a, 0.0).equivalent
