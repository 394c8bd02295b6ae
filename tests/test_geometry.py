"""Kernel tests: world functions, scalar products, density, triangle axiom,
metric tensor, sigma coordinates, angles."""

import bisect
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import worldfunc as wf
from worldfunc import Geometry, GeomVector, UnitConstants, DeformationFunction
from worldfunc.geometry import _ETA, _cells, _euclidean_sigma


EUCLID3 = Geometry.euclidean(3)
MINK = Geometry.minkowski()
ORIGIN4 = (0, 0, 0, 0)


def random_geometries():
    return [
        Geometry.euclidean(2),
        Geometry.euclidean(3),
        MINK,
        Geometry.discrete(0.01),
        Geometry.grainy(0.01, 0.03),
        Geometry.deformed(DeformationFunction.from_table([[-5, -5.5], [0, 0], [5, 5.5]])),
    ]


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_euclidean():
    assert wf.sigma(EUCLID3, (0, 0, 0), (3, 4, 0)) == 12.5


def test_sigma_minkowski():
    assert wf.sigma(MINK, (0, 0, 0, 0), (1, 0, 0, 0)) == 0.5
    assert wf.sigma(MINK, (0, 0, 0, 0), (0, 1, 0, 0)) == -0.5


def test_sigma_discrete():
    g = Geometry.discrete(0.01)
    assert wf.sigma(g, (0, 0, 0, 0), (1, 0, 0, 0)) == 0.51
    # null separation: sgn(0) = 0, so the deformation vanishes
    assert wf.sigma(g, (0, 0, 0, 0), (1, 1, 0, 0)) == 0.0


def test_sigma_identity_and_symmetry_exact():
    rng = np.random.default_rng(1)
    for g in random_geometries():
        for _ in range(200):
            p = rng.uniform(-5, 5, g.dim)
            q = rng.uniform(-5, 5, g.dim)
            assert wf.sigma(g, p, p) == 0.0
            assert wf.sigma(g, q, q) == 0.0
            assert wf.sigma(g, p, q) == wf.sigma(g, q, p)


def test_sigma_dimension_mismatch():
    with pytest.raises(wf.DimensionMismatchError):
        wf.sigma(EUCLID3, (0, 0), (1, 1))
    with pytest.raises(wf.DimensionMismatchError):
        wf.sigma(MINK, (0, 0, 0), (1, 1, 1))


def test_sigma_broadcasts():
    pts = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [2, 0, 0, 0]])
    out = wf.sigma(MINK, np.zeros(4), pts)
    assert np.array_equal(out, [0.5, -0.5, 2.0])


# coordinates of every class a float sum of squares meets: signed zeros,
# subnormals, the unit scale and magnitudes to 1e150, whose squares stay finite
COORD_CLASSES = (st.floats(-1e3, 1e3) | st.floats(-1e150, 1e150) | st.floats(-1e-300, 1e-300)
                 | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150]))


@settings(max_examples=300, deadline=None)
@given(pq=st.integers(1, 7).flatmap(lambda dim: arrays(float, (2, 6, dim), elements=COORD_CLASSES)))
@example(pq=np.array([[[0.0, -0.0, 5e-324, 1e150, -1e150, 2.5e-310, 3.0]] * 6,
                      [[-0.0, 0.0, -5e-324, -1e150, 1e150, 1.0, -3.0]] * 6]))
def test_python_float_sigma_is_sigma_bit_for_bit_below_8_coordinates(pq):
    # numpy's add.reduce sums fewer than 8 values in order, as _euclidean_sigma does
    p, q = pq
    g = Geometry.euclidean(p.shape[-1])
    got = np.array([_euclidean_sigma(a, b) for a, b in zip(p.tolist(), q.tolist())])
    assert got.tobytes() == wf.sigma(g, p, q).tobytes()  # one stacked call
    assert got.tobytes() == np.array([wf.sigma(g, a, b) for a, b in zip(p, q)]).tobytes()


def test_grainy_with_zero_sigma0_equals_discrete():
    gd = Geometry.discrete(0.01)
    gg = Geometry.grainy(0.01, 0.0)
    rng = np.random.default_rng(2)
    p = rng.uniform(-3, 3, (500, 4))
    q = rng.uniform(-3, 3, (500, 4))
    assert np.array_equal(wf.sigma(gd, p, q), wf.sigma(gg, p, q))
    # including exactly-null pairs
    assert wf.sigma(gg, (0, 0, 0, 0), (1, 1, 0, 0)) == wf.sigma(gd, (0, 0, 0, 0), (1, 1, 0, 0)) == 0.0


def test_deformed_identity_is_minkowski():
    g = Geometry.deformed(DeformationFunction.identity())
    rng = np.random.default_rng(3)
    p = rng.uniform(-3, 3, (500, 4))
    q = rng.uniform(-3, 3, (500, 4))
    assert np.array_equal(wf.sigma(g, p, q), wf.sigma(MINK, p, q))


# ---------------------------------------------------------------------------
# scalar product and lengths
# ---------------------------------------------------------------------------

def test_geom_vector_repr_shows_its_chart_points():
    assert repr(GeomVector((0, 0.5), (1, 2))) == "GeomVector([0.0, 0.5] -> [1.0, 2.0])"


def test_scalar_product_orthogonal_unit_vectors():
    a = GeomVector((0, 0, 0), (1, 0, 0))
    b = GeomVector((0, 0, 0), (0, 1, 0))
    assert wf.scalar_product(EUCLID3, a, b) == 0.0


def test_scalar_product_self_is_squared_length_exact():
    rng = np.random.default_rng(4)
    for g in random_geometries():
        for _ in range(100):
            a = GeomVector(rng.uniform(-2, 2, g.dim), rng.uniform(-2, 2, g.dim))
            assert wf.scalar_product(g, a, a) == wf.squared_length(g, a)


def test_scalar_product_minkowski_example():
    a = GeomVector((0, 0, 0, 0), (1, 0, 0, 0))
    b = GeomVector((0, 0, 0, 0), (1, 1, 0, 0))
    # coordinate oracle: x0*y0 - x.y
    assert wf.scalar_product(MINK, a, b) == pytest.approx(1.0, abs=1e-15)


def test_scalar_product_euclidean_matches_dot_product():
    rng = np.random.default_rng(5)
    for _ in range(10000):
        o1, e1, o2, e2 = rng.uniform(-2, 2, (4, 3))
        got = wf.scalar_product(EUCLID3, GeomVector(o1, e1), GeomVector(o2, e2))
        want = float((e1 - o1) @ (e2 - o2))
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-12 * scale


def test_scalar_product_minkowski_matches_coordinates():
    rng = np.random.default_rng(6)
    for _ in range(10000):
        o1, e1, o2, e2 = rng.uniform(-2, 2, (4, 4))
        got = wf.scalar_product(MINK, GeomVector(o1, e1), GeomVector(o2, e2))
        x, y = e1 - o1, e2 - o2
        want = x[0] * y[0] - float(x[1:] @ y[1:])
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-12 * scale


def test_squared_length_examples():
    assert wf.squared_length(Geometry.euclidean(2), GeomVector((0, 0), (1, 0))) == 1.0
    assert wf.squared_length(MINK, GeomVector((0, 0, 0, 0), (0, 1, 0, 0))) == -1.0
    # discrete: 2 (sigma_M + lambda0_sq) = 2 (2 + 0.02)
    g = Geometry.discrete(0.02)
    want = 2.0 * (2.0 + 0.02)
    assert wf.squared_length(g, GeomVector((0, 0, 0, 0), (2, 0, 0, 0))) == want == 4.04


# ---------------------------------------------------------------------------
# relative density
# ---------------------------------------------------------------------------

def test_relative_density_branches():
    assert wf.relative_density(0.01, 0.03, 1.0) == 1.0
    assert wf.relative_density(0.01, 0.03, 0.02) == 0.03 / 0.04 == pytest.approx(0.75)
    assert wf.relative_density(0.01, 0.03, -1.0) == 1.0
    assert wf.relative_density(0.01, 0.03, 0.04) == 0.03 / 0.04  # boundary: |sigma_g| = edge


def test_relative_density_discrete_limit():
    assert wf.relative_density(0.01, 0.0, 0.005) == 0.0


def test_relative_density_undeformed():
    assert wf.relative_density(0.0, 0.0, 0.5) == 1.0


def test_relative_density_grid():
    rho = wf.relative_density(0.01, 0.03, np.array([-1.0, 0.0, 0.02, 1.0]))
    assert np.array_equal(rho, [1.0, 0.75, 0.75, 1.0])


def test_relative_density_rejects_negative():
    with pytest.raises(wf.InvalidInputError):
        wf.relative_density(-0.01, 0.03, 1.0)


# ---------------------------------------------------------------------------
# triangle axiom
# ---------------------------------------------------------------------------

def test_triangle_axiom_euclidean_random():
    rng = np.random.default_rng(7)
    triples = rng.uniform(-5, 5, (10000, 3, 3))
    reports = wf.check_triangle_axiom(EUCLID3, triples)
    assert all(r.holds and not r.skipped for r in reports)
    assert min(r.slack for r in reports) >= -1e-12


def test_triangle_axiom_minkowski_collinear():
    triple = ((0, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0))
    reports = wf.check_triangle_axiom(MINK, [triple])
    assert reports[0].holds and reports[0].slack == 0.0
    assert wf.check_triangle_axiom(MINK, triple) == reports  # one (3, dim) triple: a batch of one


def test_triangle_axiom_discrete_violation():
    g = Geometry.discrete(0.02)
    triple = ((0, 0, 0, 0), (2, 0, 0, 0), (1, 0.999, 0, 0))
    (report,) = wf.check_triangle_axiom(g, [triple])
    assert not report.skipped
    assert report.slack < 0 and not report.holds

    # exact-arithmetic oracle: legs 2 sigma_d = 1999/10^6 + 2/50 each,
    # base 2 sigma_d = 101/25; violated iff 4 * leg < base
    leg = Fraction(1999, 10**6) + Fraction(2, 50)
    base = Fraction(101, 25)
    assert 4 * leg < base


def test_triangle_axiom_skips_spacelike():
    (report,) = wf.check_triangle_axiom(MINK, [((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))])
    assert report.skipped and report.holds and math.isnan(report.slack)


def test_triangle_axiom_rejects_non_finite_triples():
    with pytest.raises(wf.InvalidInputError):
        wf.check_triangle_axiom(MINK, [((0, 0, 0, 0), (2, 0, 0, 0), (1, math.nan, 0, 0))])


def _scalar_defect(g, p0, p1, r):
    """Per-triple triangle defect from three scalar sigma calls; NaN where any
    sigma is negative."""
    s_ar, s_rb, s_ab = wf.sigma(g, p0, r), wf.sigma(g, r, p1), wf.sigma(g, p0, p1)
    if min(s_ar, s_rb, s_ab) < 0:
        return math.nan
    return math.sqrt(2.0 * s_ar) + math.sqrt(2.0 * s_rb) - math.sqrt(2.0 * s_ab)


@pytest.mark.parametrize("g", random_geometries(), ids=lambda g: f"{g.kind}{g.dim}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_triangle_defect_matches_scalar_formula_bitwise(g, data):
    triples = data.draw(arrays(np.float64, (6, 3, g.dim), elements=st.floats(-3.0, 3.0)))
    got = wf.triangle_defect(g, triples[:, 0], triples[:, 1], triples[:, 2])
    want = np.array([_scalar_defect(g, *t) for t in triples])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    one = wf.triangle_defect(g, *triples[0])
    assert isinstance(one, float) and (math.isnan(one) if nan[0] else one == want[0])


# ---------------------------------------------------------------------------
# metric tensor and sigma coordinates
# ---------------------------------------------------------------------------

STD4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_metric_tensor_minkowski_signature():
    gkl, ginv = wf.metric_tensor(MINK, (0, 0, 0, 0), STD4)
    assert np.array_equal(gkl, np.diag([1.0, -1.0, -1.0, -1.0]))
    assert np.abs(ginv @ gkl - np.eye(4)).max() < 1e-10


def test_metric_tensor_euclidean_identity():
    g2 = Geometry.euclidean(2)
    gkl, ginv = wf.metric_tensor(g2, (0, 0), [(1, 0), (0, 1)])
    assert np.array_equal(gkl, np.eye(2))
    assert np.array_equal(ginv, np.eye(2))


def test_metric_tensor_degenerate_basis():
    with pytest.raises(wf.DegenerateBasisError):
        wf.metric_tensor(Geometry.euclidean(2), (0, 0), [(1, 0), (1, 0)])


def test_metric_tensor_near_degenerate_basis():
    # invertible, but its inverse reproduces the identity only to 6.1e-7
    with pytest.raises(wf.DegenerateBasisError, match=r"inverse defect 6\.1\d\de-07"):
        wf.metric_tensor(EUCLID3, (0, 0, 0), [(1, 0, 0), (1, 1e-5, 0), (0.3, 0.7, 1)])


def test_sigma_coordinates_minkowski():
    v = GeomVector((0, 0, 0, 0), (1, 2, 0, 0))
    coords = wf.sigma_coordinates(MINK, v, (0, 0, 0, 0), STD4)
    # oracle: chart coordinate differences
    assert np.abs(coords - np.array([1.0, 2.0, 0.0, 0.0])).max() < 1e-12


def test_sigma_coordinates_zero_vector():
    v = GeomVector((1, 1, 0, 0), (1, 1, 0, 0))
    coords = wf.sigma_coordinates(MINK, v, (0, 0, 0, 0), STD4)
    assert np.array_equal(coords, np.zeros(4))


def test_sigma_coordinates_translation_invariant():
    v = GeomVector((1, 1, 1), (2, 1, 1))
    coords = wf.sigma_coordinates(EUCLID3, v, (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert np.abs(coords - np.array([1.0, 0.0, 0.0])).max() < 1e-12


@pytest.mark.parametrize("g", random_geometries() + [Geometry.euclidean(9)],
                         ids=lambda g: f"{g.kind}{g.dim}")
def test_metric_tensor_and_sigma_coordinates_match_the_pair_loop_bitwise(g):
    # the per-pair loops the broadcast calls replaced, kept as reference
    rng = np.random.default_rng(17)
    o = rng.uniform(-1.0, 1.0, g.dim)
    basis = list(o + np.eye(g.dim) + rng.uniform(-0.3, 0.3, (g.dim, g.dim)))
    v = GeomVector(*rng.uniform(-1.0, 1.0, (2, g.dim)))
    want = np.empty((g.dim, g.dim))
    for k in range(g.dim):
        for l in range(k, g.dim):
            want[k, l] = want[l, k] = wf.scalar_product(g, GeomVector(o, basis[k]),
                                                        GeomVector(o, basis[l]))
    cov = np.array([wf.scalar_product(g, v, GeomVector(o, s)) for s in basis])
    gkl, ginv = wf.metric_tensor(g, o, basis)
    assert _bits(gkl) == _bits(want)
    assert _bits(wf.sigma_coordinates(g, v, o, basis)) == _bits(ginv @ cov)


def test_basis_size_checked():
    with pytest.raises(wf.DimensionMismatchError, match="needs 2 points, got 0"):
        wf.metric_tensor(Geometry.euclidean(2), (0, 0), [])
    with pytest.raises(wf.DimensionMismatchError, match="needs 4 points, got 3"):
        wf.sigma_coordinates(MINK, GeomVector(ORIGIN4, (1, 0, 0, 0)), ORIGIN4, STD4[:3])


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------

def test_euclidean_angle_right():
    g2 = Geometry.euclidean(2)
    a = GeomVector((0, 0), (1, 0))
    b = GeomVector((0, 0), (0, 1))
    assert wf.euclidean_angle(g2, a, b) == pytest.approx(math.pi / 2, abs=1e-15)


def test_euclidean_angle_self_zero():
    a = GeomVector((0.3, -0.2), (1.1, 0.7))
    assert wf.euclidean_angle(Geometry.euclidean(2), a, a) == 0.0


def test_euclidean_angle_45():
    g2 = Geometry.euclidean(2)
    a = GeomVector((0, 0), (1, 0))
    b = GeomVector((0, 0), (1, 1))
    got = wf.euclidean_angle(g2, a, b)
    # coordinate oracle
    want = math.acos((np.array([1, 0]) @ np.array([1, 1])) / math.sqrt(2.0))
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(math.pi / 4, abs=1e-15)


def test_euclidean_angle_rejects_nonpositive_length():
    with pytest.raises(wf.UndefinedAngleError):
        wf.euclidean_angle(MINK, GeomVector((0, 0, 0, 0), (0, 1, 0, 0)),
                           GeomVector((0, 0, 0, 0), (1, 0, 0, 0)))


def test_euclidean_angle_rejects_non_euclidean_ratio():
    # timelike pair with (a.b) > |a||b| (reverse Cauchy-Schwarz)
    a = GeomVector((0, 0, 0, 0), (1, 0, 0, 0))
    b = GeomVector((0, 0, 0, 0), (2, 1, 0, 0))
    with pytest.raises(wf.UndefinedAngleError):
        wf.euclidean_angle(MINK, a, b)


# ---------------------------------------------------------------------------
# discrete distance gap
# ---------------------------------------------------------------------------

def test_discrete_distance_gap():
    g = Geometry.discrete(0.01)
    rng = np.random.default_rng(8)
    collected = 0
    min_dist = np.inf
    while collected < 100000:
        p = rng.uniform(-2, 2, (50000, 4))
        q = rng.uniform(-2, 2, (50000, 4))
        sm = wf.sigma(MINK, p, q)
        keep = sm > 0
        sd = wf.sigma(g, p[keep], q[keep])
        if sd.size:
            min_dist = min(min_dist, float(np.sqrt(2.0 * sd).min()))
        collected += int(keep.sum())
    assert min_dist >= math.sqrt(2) * 0.1


# ---------------------------------------------------------------------------
# deformation functions, units, serialization
# ---------------------------------------------------------------------------

def test_deformation_table_requires_zero_at_zero():
    with pytest.raises(wf.InvalidInputError):
        DeformationFunction.from_table([[-1, -0.9], [1, 1.2]])  # F(0) = 0.15 != 0


_FLAT_TABLE = [(-2, -2), (0, 0), (0.5, 0.5), (1, 0.5), (2, 1.5)]


def test_deformation_table_requires_increasing_breakpoints():
    with pytest.raises(wf.InvalidInputError):
        DeformationFunction.from_table([[1, 1], [0, 0], [2, 2]])


def test_deformation_table_interpolates_and_extrapolates():
    F = DeformationFunction.from_table([[0, 0], [1, 2], [2, 3]])
    assert F(0.5) == 1.0
    assert F(1.5) == 2.5
    assert F(3.0) == 4.0   # linear extrapolation of the last segment
    assert F(-1.0) == -2.0  # linear extrapolation of the first segment


def test_deformation_builtins_match_geometries():
    x = np.linspace(-2, 2, 101)
    F = DeformationFunction.discrete_shift(0.01)
    assert np.array_equal(F(x), x + 0.01 * np.sign(x))
    G = DeformationFunction.grainy_ramp(0.01, 0.03)
    gg = Geometry.grainy(0.01, 0.03)
    mink = Geometry.minkowski()
    p = np.zeros(4)
    for sm in (-1.0, -0.02, 0.0, 0.02, 1.0):
        q = np.array([math.sqrt(2 * sm), 0, 0, 0]) if sm >= 0 else np.array([0, math.sqrt(-2 * sm), 0, 0])
        assert G(wf.sigma(mink, p, q)) == wf.sigma(gg, p, q)


def test_unit_constants():
    u = UnitConstants(hbar=0.02, c=1.0, b=1.0)
    assert u.elementary_area == 0.01
    with pytest.raises(wf.InvalidInputError):
        UnitConstants(hbar=-1.0)
    g = Geometry.discrete_from_units(u)
    assert g.lambda0_sq == 0.01


def test_geometry_constructor_validation():
    with pytest.raises(wf.InvalidInputError):
        Geometry.discrete(0.0)
    with pytest.raises(wf.InvalidInputError):
        Geometry.grainy(-0.1, 0.0)
    with pytest.raises(wf.InvalidInputError):
        Geometry.euclidean(0)


@pytest.mark.parametrize("dim", [2.7, True, "2.5", None])
def test_euclidean_dimension_must_be_an_integer(dim):
    # int(dim) used to run {"dim": 2.7} as 2-d and {"dim": true} as 1-d
    with pytest.raises(wf.InvalidInputError, match="dim must be an integer"):
        Geometry.from_dict({"kind": "euclidean", "dim": dim})
    with pytest.raises(wf.InvalidInputError, match="dim must be an integer"):
        Geometry.euclidean(dim)
    assert Geometry.from_dict({"kind": "euclidean", "dim": 2.0}).dim == 2
    assert Geometry.from_dict({"kind": "euclidean", "dim": "5"}).dim == 5


def test_geometry_serialization_roundtrip():
    geoms = random_geometries() + [Geometry.deformed(DeformationFunction.identity())]
    rng = np.random.default_rng(9)
    for g in geoms:
        g2 = Geometry.from_dict(g.to_dict())
        assert g2.kind == g.kind and g2.dim == g.dim
        p = rng.uniform(-2, 2, (100, g.dim))
        q = rng.uniform(-2, 2, (100, g.dim))
        assert np.array_equal(wf.sigma(g, p, q), wf.sigma(g2, p, q))


def test_builtin_deformation_serialization_roundtrip():
    for F in (DeformationFunction.discrete_shift(0.01),
              DeformationFunction.grainy_ramp(0.01, 0.03),
              DeformationFunction.identity()):
        g = Geometry.deformed(F)
        g2 = Geometry.from_dict(g.to_dict())
        x = np.linspace(-2, 2, 41)
        p = np.zeros((41, 4))
        q = np.stack([np.where(x >= 0, np.sqrt(2 * np.abs(x)), 0.0),
                      np.where(x < 0, np.sqrt(2 * np.abs(x)), 0.0),
                      np.zeros(41), np.zeros(41)], axis=1)
        assert np.array_equal(wf.sigma(g, p, q), wf.sigma(g2, p, q))


def test_deformation_value():
    assert wf.deformation_value(Geometry.discrete(0.01), 0.5) == 0.01
    assert wf.deformation_value(Geometry.discrete(0.01), -0.5) == -0.01
    assert wf.deformation_value(Geometry.discrete(0.01), 0.0) == 0.0
    assert wf.deformation_value(MINK, 1.23) == 0.0
    with pytest.raises(wf.WorldFunctionError):
        wf.deformation_value(EUCLID3, 1.0)


# ---------------------------------------------------------------------------
# sigma gradient: the reference Jacobian of the equivalence tests
# ---------------------------------------------------------------------------

def _slope(F, x):
    """F'(x) read from F's cells (``_cells``): the slope of the cell right of x."""
    xs, m, _, _ = _cells(F)
    return m[np.searchsorted(xs, x, side="right")]


def _sigma_gradient(g, p, q):
    """Gradient of sigma(p, q) in the end point q; broadcasts like ``sigma``.

    Every world function here is a function F of the flat one, so the
    gradient is F'(sigma_M) eta (q - p), F' from ``_slope``, and q - p in the
    Euclidean geometry.  The discrete shift's jump at sigma_M = 0 reads slope 1.
    """
    d = np.subtract(q, p)
    if g.deformation is None:
        return d
    return np.asarray(_slope(g.deformation, wf.sigma(MINK, p, q)))[..., None] * (d * _ETA)


_TABLE = [[-5, -5.5], [-1, -1.2], [0, 0], [0.5, 0.7], [5, 5.5]]

# (geometry, sigma_M values where F' jumps); Euclidean dims 1-5 and every
# substrate kind, with ramps wide enough for random points to land inside
GRADIENT_CASES = [(Geometry.euclidean(d), ()) for d in range(1, 6)] + [
    (MINK, ()),
    (Geometry.discrete(0.01), (0.0,)),
    (Geometry.grainy(0.01, 0.03), (-0.03, 0.03)),
    (Geometry.grainy(0.2, 1.5), (-1.5, 1.5)),
    (Geometry.grainy(0.2, 0.0), (0.0,)),
    (Geometry.deformed(DeformationFunction.from_table(_TABLE)), tuple(x for x, _ in _TABLE)),
    (Geometry.deformed(DeformationFunction.grainy_ramp(0.2, 1.5)), (-1.5, 1.5)),
    (Geometry.deformed(DeformationFunction.discrete_shift(0.01)), (0.0,)),
    (Geometry.deformed(DeformationFunction.identity()), ()),
]
# ids name the constructor: the kind read from F differs for grainy(0.2, 0)
# and the deformed built-ins
_CASE_IDS = [f"{name}{i}" for i, name in enumerate(
    ["euclidean"] * 5 + ["minkowski", "discrete"] + ["grainy"] * 3 + ["deformed"] * 4)]


def _draw_pair(data, dim):
    pts = arrays(np.float64, dim, elements=st.floats(-3.0, 3.0))
    return data.draw(pts), data.draw(pts)


@pytest.mark.parametrize("g,kinks", GRADIENT_CASES, ids=_CASE_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sigma_gradient_matches_central_differences(g, kinks, data):
    p, q = _draw_pair(data, g.dim)
    d = q - p
    sm = 0.5 * (d[0] ** 2 - d[1:] @ d[1:])
    # central differences are exact for a quadratic away from F's kinks
    assume(all(abs(sm - k) > 1e-3 for k in kinks))
    h = 1e-6
    fd = np.array([(wf.sigma(g, p, q + h * e) - wf.sigma(g, p, q - h * e)) / (2 * h)
                   for e in np.eye(g.dim)])
    np.testing.assert_allclose(_sigma_gradient(g, p, q), fd, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("g,kinks", GRADIENT_CASES, ids=_CASE_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sigma_hessian_matches_central_differences(g, kinks, data):
    p, q = _draw_pair(data, g.dim)
    d = q - p
    sm = 0.5 * (d[0] ** 2 - d[1:] @ d[1:])
    # the gradient is linear in q between F's kinks, so its central differences are exact there
    assume(all(abs(sm - k) > 1e-3 for k in kinks))
    h = 1e-6
    fd = np.array([(_sigma_gradient(g, p, q + h * e) - _sigma_gradient(g, p, q - h * e)) / (2 * h)
                   for e in np.eye(g.dim)])
    # the Hessian the reference second-order test reads: F'(sigma_M) eta, the identity if Euclidean
    if g.deformation is None:
        hessian = np.eye(g.dim)
    else:
        hessian = _slope(g.deformation, sm) * np.diag(_ETA)
    np.testing.assert_allclose(hessian, fd, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("g,kinks", GRADIENT_CASES, ids=_CASE_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sigma_gradient_in_origin_is_negated(g, kinks, data):
    p, q = _draw_pair(data, g.dim)
    # sigma is symmetric, so d sigma/dp = _sigma_gradient(g, q, p); exact, kinks included
    assert np.array_equal(_sigma_gradient(g, q, p), -_sigma_gradient(g, p, q))


def test_grainy_ramp_with_a_tiny_sigma0_does_not_warn():
    # far outside a tiny ramp x / sigma0 overflows: the ramp must clip before dividing
    F = DeformationFunction.grainy_ramp(0.01, 1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert F(1e10) == 1e10 + 0.01 and F(-1e10) == -1e10 - 0.01
        assert np.array_equal(F(np.array([-1e10, 0.0, 1e10])), [-1e10 - 0.01, 0.0, 1e10 + 0.01])
        assert wf.deformation_value(Geometry.deformed(F), 1e300) == 0.01


@pytest.mark.parametrize("sigma0", [0.5, 1e-310])
def test_grainy_shift_is_the_clipped_ramp_bitwise(sigma0):
    # lambda0_sq * clip(x, -sigma0, sigma0) / sigma0 on the edge values,
    # array and numpy scalar alike: NaN stays NaN, the sign of zero is kept
    F = DeformationFunction.grainy_ramp(0.01, sigma0)
    x = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300,
                  0.25, -0.25])
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # 5e-324 underflows
        want = 0.01 * (np.clip(x, -sigma0, sigma0) / sigma0)
        got = F._shift(x)
        assert got.tobytes() == want.tobytes()
        for xi, wi in zip(x, want):
            assert np.array(F._shift(xi)).tobytes() == np.array(wi).tobytes()
    assert np.isnan(got[0]) and math.copysign(1.0, got[2]) == -1.0
    assert got[[1, 3, 4, 7, 8]].tolist() == [0.0, 0.01, -0.01, 0.01, -0.01]


def test_deformation_slopes():
    # the slopes F's cells hold, one per open cell between the breakpoints
    assert _cells(DeformationFunction.identity())[1].tolist() == [1.0, 1.0]
    # the discrete shift jumps at 0; both of its cells have slope 1
    assert _cells(DeformationFunction.discrete_shift(0.01))[1].tolist() == [1.0, 1.0]
    # 1 outside the ramp, 1 + lambda0_sq / sigma0 inside it
    assert _cells(DeformationFunction.grainy_ramp(0.01, 0.5))[1].tolist() == [1.0, 1.02, 1.02, 1.0]
    seg = [4.3 / 4, 4.3 / 4, 1.2, 1.4, 4.8 / 4.5, 4.8 / 4.5]  # the end segments extended
    np.testing.assert_allclose(_cells(DeformationFunction.from_table(_TABLE))[1], seg, rtol=1e-15)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1e300), sigma0=st.floats(0.0, 1e300), dy=st.floats(0.0, 1e300),
       dx=st.floats(0.0, 1e300))
def test_every_accepted_deformation_has_finite_positive_slopes(lam, sigma0, dy, dx):
    # a built-in F or a table with one drawn segment: every cell's slope
    for make in (lambda: DeformationFunction.grainy_ramp(lam, sigma0),
                 lambda: DeformationFunction.from_table([[-1, -1], [0, 0], [dx, dy]])):
        try:
            F = make()
        except wf.InvalidInputError:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = _cells(F)[1]
        assert np.all((0.0 < m) & (m < math.inf))


# F's linear cells, one per (sigma_M breakpoint) interval; the Euclidean
# geometry (None) is the identity, and a table need not list 0
_CELL_CASES = [None, DeformationFunction.identity(), DeformationFunction.discrete_shift(0.01),
               DeformationFunction.grainy_ramp(0.01, 0.03), DeformationFunction.grainy_ramp(0.2, 1.5),
               DeformationFunction.from_table(_TABLE),
               DeformationFunction.from_table([[-1, -1.3], [1, 1.3]])]
_CELL_IDS = ["none", "identity", "discrete", "grainy", "grainy-wide", "table", "table-without-0"]


@pytest.mark.parametrize("F", _CELL_CASES, ids=_CELL_IDS)
@settings(max_examples=200, deadline=None)
@given(x=st.floats(-20.0, 20.0) | st.floats(-0.1, 0.1) | st.floats(-1e-6, 1e-6))
def test_cells_are_F_line_by_line(F, x):
    xs, m, xa, ya = _cells(F)
    assert 0.0 in xs and np.all(np.diff(xs) > 0) and len(m) == len(xa) == len(ya) == len(xs) + 1
    assume(x not in xs)  # the cells are open
    k = np.searchsorted(xs, x)
    line = ya[k] + m[k] * (x - xa[k])
    f = (lambda v: v) if F is None else F
    want = f(x)
    if F is not None and F.table is not None:
        assert line == want  # a table F is evaluated on these cells
    else:
        assert abs(line - want) <= 2 * np.spacing(abs(want))
    # the slope is F's own difference quotient across the cell: x and the
    # point halfway to the cell's farther end (an end cell reaches 2 past x)
    lo, hi = xs[k - 1] if k else x - 2.0, xs[k] if k < len(xs) else x + 2.0
    y = 0.5 * (x + (lo if x - lo > hi - x else hi))
    assert m[k] == pytest.approx((f(y) - f(x)) / (y - x), rel=1e-9)


def test_cells_breakpoints():
    assert _cells(None)[0].tolist() == [0.0]
    assert _cells(DeformationFunction.discrete_shift(0.01))[0].tolist() == [0.0]
    assert _cells(DeformationFunction.grainy_ramp(0.01, 0.03))[0].tolist() == [-0.03, 0.0, 0.03]
    assert _cells(DeformationFunction.from_table(_TABLE))[0].tolist() == [x for x, _ in _TABLE]
    xs, m, xa, ya = _cells(DeformationFunction.from_table([[-1, -1.3], [1, 1.3]]))
    # 0 splits the one segment into two cells on its own line; both ends extended
    assert xs.tolist() == [-1.0, 0.0, 1.0]
    assert m.tolist() == [1.3] * 4 and xa.tolist() == [-1.0, -1.0, -1.0, 1.0]


@st.composite
def _increasing_tables(draw):
    # (0, 0), either zero signed, between increasing negative and positive breakpoints
    def mags(n_min, n_max):
        return sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=n_min, max_size=n_max, unique=True)))
    nx, px = mags(0, 4), mags(1, 4)
    ny, py = mags(len(nx), len(nx)), mags(len(px), len(px))
    zero = [draw(st.sampled_from([0.0, -0.0])) for _ in range(2)]
    return [[-x, -y] for x, y in zip(nx[::-1], ny[::-1])] + [zero] + [[x, y] for x, y in zip(px, py)]


@settings(max_examples=200, deadline=None)
@given(table=_increasing_tables())
@example(table=_TABLE)
@example(table=[[-1, -1.3], [1, 1.3]])  # 0 inside a segment
@example(table=[[0.5, 0.75], [1, 1.5], [4, 3]])  # 0 on the extended first segment
def test_table_breakpoints_give_their_own_sigma(table):
    # one value or a batch; the ends of the line stay infinite, NaN stays NaN
    # and -0.0 gives 0.0, as F(0) does
    F = DeformationFunction.from_table(table)
    tx, ty = F.table.T
    assert F.table.tolist() == np.array(table, dtype=float).tolist()
    assert not np.signbit(F.table[F.table == 0.0]).any()  # a -0.0 entry is held as 0.0
    assert F(tx).tobytes() == ty.tobytes()
    for x, y in zip(tx.tolist(), ty.tolist()):
        assert F(x).hex() == y.hex()
    got = F(np.array([math.inf, -math.inf, math.nan, -0.0]))
    assert got[:2].tolist() == [math.inf, -math.inf] and math.isnan(got[2])
    assert got[3].hex() == F(-0.0).hex() == F(0.0).hex() == "0x0.0p+0"


@pytest.mark.parametrize("F", _CELL_CASES, ids=_CELL_IDS)
def test_cells_are_computed_once_and_read_only(F):
    cells = _cells(F)
    assert all(a is b for a, b in zip(_cells(F), cells))
    for arr in cells:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    if F is not None and F.table is not None:
        with pytest.raises(ValueError, match="read-only"):
            F.table[0, 0] = -6.0


def test_table_deformation_holds_its_own_table():
    # F, and the cells held for it, do not change with the array it was built from
    tab = np.array(_TABLE, dtype=float)
    F = DeformationFunction.from_table(tab)
    cells = [arr.copy() for arr in _cells(F)]
    tab[:, 1] *= 2.0
    assert F.table.tolist() == _TABLE and F(0.25) == 0.35
    assert all(np.array_equal(a, b) for a, b in zip(_cells(F), cells))


_F_VALUES = st.floats(-50.0, 50.0) | st.sampled_from([-5.0, -1.0, -0.03, 0.0, -0.0, 0.03, 0.5, 5.0])


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from([DeformationFunction.identity, lambda: DeformationFunction.discrete_shift(0.01),
                             lambda: DeformationFunction.grainy_ramp(0.01, 0.03),
                             lambda: DeformationFunction.from_table(_TABLE)]),
       values=st.lists(_F_VALUES, min_size=3, max_size=3),
       at=st.lists(st.integers(0, 999), min_size=3, max_size=3, unique=True), seed=st.integers(0, 99))
def test_F_gives_the_same_bits_on_any_shape(make, values, at, seed):
    # a 0-d value, a (3,) array and the same values inside a (1000,) array: F's
    # short paths for a few values, and a table's end segments, keep every bit
    F = make()
    x = np.array(values)
    big = np.random.default_rng(seed).uniform(-10.0, 10.0, 1000)
    big[at] = x
    three = F(x)
    assert type(three) is np.ndarray and three.shape == (3,)
    for v, want in zip(values, three):
        for arg in (v, np.float64(v), np.array(v)):
            got = F(arg)
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
    assert F(big)[at].tobytes() == F(x.tolist()).tobytes() == three.tobytes()


# ---------------------------------------------------------------------------
# one deformation dispatch
# ---------------------------------------------------------------------------

def _ramp(x, sigma0):
    # per-kind reference: sgn for the discrete shift, the grainy ramp inside sigma0
    if sigma0 == 0.0:
        return np.sign(x)
    return np.where(np.abs(x) > sigma0, np.sign(x), x / sigma0)


# built-in geometry, the same F as a deformed geometry, reference d(sigma_M)
BUILTIN_TWINS = [
    (MINK, DeformationFunction.identity(), lambda x: np.zeros_like(x)),
    (Geometry.discrete(0.01), DeformationFunction.discrete_shift(0.01),
     lambda x: 0.01 * np.sign(x)),
    (Geometry.grainy(0.01, 0.03), DeformationFunction.grainy_ramp(0.01, 0.03),
     lambda x: 0.01 * _ramp(x, 0.03)),
    (Geometry.grainy(0.2, 1.5), DeformationFunction.grainy_ramp(0.2, 1.5),
     lambda x: 0.2 * _ramp(x, 1.5)),
    (Geometry.grainy(0.01, 0.0), DeformationFunction.grainy_ramp(0.01, 0.0),
     lambda x: 0.01 * np.sign(x)),
]
# ids name the constructor: the kind is read from F, so grainy(0.01, 0) reads discrete
_TWIN_IDS = [f"{name}{i}" for i, name in
             enumerate(["minkowski", "discrete", "grainy", "grainy", "grainy"])]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("g,F,ref", BUILTIN_TWINS, ids=_TWIN_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_builtin_kinds_equal_their_deformed_twins_bitwise(g, F, ref, data):
    twin = Geometry.deformed(F)
    kind = data.draw(st.sampled_from(["random", "null", "coincident"]))
    if kind == "random":
        p, q = _draw_pair(data, 4)
    else:
        # dyadic origin plus an exactly representable null shift (3,2,2,1)/8
        p = np.array(data.draw(st.lists(st.integers(-24, 24), min_size=4, max_size=4))) / 8.0
        q = p + np.array([3.0, 2.0, -2.0, 1.0]) / 8.0 if kind == "null" else p.copy()
    assert _bits(wf.sigma(g, p, q)) == _bits(wf.sigma(twin, p, q))
    sm = wf.sigma(MINK, p, q)
    x = np.array([sm, data.draw(st.floats(-3.0, 3.0))])
    assert np.array_equal(wf.deformation_value(g, x), ref(x))
    assert np.array_equal(wf.deformation_value(twin, x), ref(x))


_UNITS = {"hbar": 1.0, "c": 1.0, "b": 1.0}


@pytest.mark.parametrize("g,want", [
    (Geometry.euclidean(3),
     {"kind": "euclidean", "dim": 3, "lambda0_sq": 0.0, "sigma0": 0.0, "units": _UNITS}),
    (MINK, {"kind": "minkowski", "dim": 4, "lambda0_sq": 0.0, "sigma0": 0.0, "units": _UNITS}),
    (Geometry.discrete(0.01),
     {"kind": "discrete", "dim": 4, "lambda0_sq": 0.01, "sigma0": 0.0, "units": _UNITS}),
    (Geometry.grainy(0.01, 0.03),
     {"kind": "grainy", "dim": 4, "lambda0_sq": 0.01, "sigma0": 0.03, "units": _UNITS}),
    (Geometry.deformed(DeformationFunction.from_table([[-5, -5.5], [0, 0], [5, 5.5]])),
     {"kind": "deformed", "dim": 4, "lambda0_sq": 0.0, "sigma0": 0.0, "units": _UNITS,
      "F_table": [[-5.0, -5.5], [0.0, 0.0], [5.0, 5.5]]}),
    (Geometry.deformed(DeformationFunction.identity()),
     {"kind": "minkowski", "dim": 4, "lambda0_sq": 0.0, "sigma0": 0.0, "units": _UNITS}),
    (Geometry.deformed(DeformationFunction.discrete_shift(0.01)),
     {"kind": "discrete", "dim": 4, "lambda0_sq": 0.01, "sigma0": 0.0, "units": _UNITS}),
    (Geometry.deformed(DeformationFunction.grainy_ramp(0.01, 0.03)),
     {"kind": "grainy", "dim": 4, "lambda0_sq": 0.01, "sigma0": 0.03, "units": _UNITS}),
], ids=["euclidean-", "minkowski-", "discrete-", "grainy-"] + ["deformed-"] * 4)
def test_to_dict_is_pinned(g, want):
    # key order included: the serialized form must not drift; ids name the
    # constructor, and a built-in F reached through deformed() keeps its kind
    assert list(g.to_dict().items()) == list(want.items())


# twins: one F reached through two constructors
SERIALIZATION_TWINS = [
    (Geometry.deformed(DeformationFunction.discrete_shift(0.01)), Geometry.discrete(0.01)),
    (Geometry.grainy(0.01, 0.0), Geometry.discrete(0.01)),
    (Geometry.grainy(0.0, 0.03), MINK),
    (Geometry.deformed(DeformationFunction.identity()), MINK),
    (Geometry.deformed(DeformationFunction.grainy_ramp(0.01, 0.03)), Geometry.grainy(0.01, 0.03)),
]


def test_twin_geometries_serialize_identically():
    # the kind is read from F, so the same F gives the same description
    # whichever constructor built it
    for g, twin in SERIALIZATION_TWINS:
        assert g.to_dict() == twin.to_dict()
        assert Geometry.from_dict(g.to_dict()).to_dict() == twin.to_dict()


def test_builtin_deformation_ignores_parameters_of_other_kinds():
    # equal F have equal parameters: without a shift the ramp width is dropped
    F = DeformationFunction(sigma0=0.5)
    assert (F.lambda0_sq, F.sigma0, F(0.25)) == (0.0, 0.0, 0.25)
    assert Geometry.deformed(F).to_dict() == MINK.to_dict()
    S = DeformationFunction.discrete_shift(0.01)
    assert (S.lambda0_sq, S.sigma0, S(0.02)) == (0.01, 0.0, 0.02 + 0.01)
    # a serialized discrete geometry has no ramp width to carry
    g = Geometry.from_dict({"kind": "discrete", "lambda0_sq": 0.01, "sigma0": 0.5})
    assert (g.sigma0, g.to_dict()) == (0.0, Geometry.discrete(0.01).to_dict())


@pytest.mark.parametrize("make,match", [
    (lambda: DeformationFunction(lambda0_sq=-0.01), "lambda0_sq must be >= 0"),
    (lambda: DeformationFunction(lambda0_sq=0.01, sigma0=-0.03), "sigma0 must be >= 0"),
    (lambda: Geometry.grainy(0.0, -0.03), "sigma0 must be >= 0"),
    (lambda: wf.relative_density(0.01, -0.03, 0.0), "sigma0 must be >= 0"),
    (lambda: DeformationFunction(lambda0_sq=0.01, table=[[-1, -2], [0, 0], [1, 2]]),
     "takes no lambda0_sq"),
    # a flat or falling segment solves the length equation on a whole sigma_M interval
    (lambda: DeformationFunction.from_table(_FLAT_TABLE),
     r"segment 2 from \[0.5, 0.5\] to \[1.0, 0.5\]"),
    (lambda: DeformationFunction.from_table([(-2, -2), (0, 0), (0.5, 0.5), (1, 0.4), (2, 1.5)]),
     "strictly increasing: segment 2"),
    (lambda: DeformationFunction.from_table([["a", 0], [0, 0]]), "table must hold numbers"),
    (lambda: DeformationFunction.from_table([[0, 0]]), "at least two"),
    (lambda: DeformationFunction.from_table([[-1, -1], [0, 0], [math.nan, 1]]),
     "table breakpoints must be finite"),
    # a slope that is not a finite positive float would put an inf or 0 slope in F's cells
    (lambda: Geometry.grainy(0.01, 5e-324), r"sigma0 = 5e-324 is too small for lambda0_sq"),
    (lambda: DeformationFunction.from_table([[-1, -1], [0, 0], [5e-324, 1], [2, 3]]),
     r"table slope must be finite and > 0: segment 1 from \[0.0, 0.0\] to \[5e-324, 1.0\]"),
    (lambda: DeformationFunction.from_table([[-1e308, -1e308], [0, 0], [1e308, 1e-300]]),
     "table slope must be finite and > 0: segment 1"),
], ids=["negative-l", "negative-s", "grainy-negative-s", "density-negative-s", "table-and-l",
        "flat-table", "falling-table", "table-of-text", "one-row-table", "nan-table",
        "ramp-slope-overflows",
        "table-slope-overflows", "table-slope-underflows"])
def test_deformation_rejects_parameters_it_cannot_use(make, match):
    with pytest.raises(wf.InvalidInputError, match=match):
        make()


@pytest.mark.parametrize("make,name", [
    (lambda: Geometry.grainy(math.nan, 0.03), "lambda0_sq"),
    (lambda: Geometry.grainy(0.01, math.nan), "sigma0"),
    (lambda: Geometry.grainy(math.inf, 0.03), "lambda0_sq"),
    (lambda: Geometry.grainy(0.01, math.inf), "sigma0"),
    (lambda: Geometry.discrete(math.inf), "lambda0_sq"),
    (lambda: DeformationFunction.discrete_shift(math.nan), "lambda0_sq"),
    (lambda: Geometry.from_dict({"kind": "grainy", "lambda0_sq": "nan", "sigma0": 0.03}),
     "lambda0_sq"),
    (lambda: wf.relative_density(math.nan, 0.03, 0.0), "lambda0_sq"),
    (lambda: wf.relative_density(0.01, math.inf, 0.0), "sigma0"),
], ids=["grainy-nan-l", "grainy-nan-s", "grainy-inf-l", "grainy-inf-s", "discrete-inf",
        "shift-nan", "spec-nan", "density-nan", "density-inf"])
def test_non_finite_deformation_parameters_rejected(make, name):
    with pytest.raises(wf.InvalidInputError, match=f"{name} must be finite"):
        make()


def test_serialized_grainy_needs_both_parameters():
    with pytest.raises(wf.InvalidInputError, match="sigma0"):
        Geometry.from_dict({"kind": "grainy", "lambda0_sq": 0.01})


def test_deformation_parameters_are_read_from_the_deformation():
    # lambda0_sq and sigma0 used to be settable fields that could contradict
    # the deformation: sigma used one value, from_dict(to_dict()) the other
    assert [f.name for f in dataclasses.fields(Geometry)] == ["dim", "deformation", "units"]
    with pytest.raises(TypeError):
        Geometry(lambda0_sq=0.5, deformation=DeformationFunction.discrete_shift(0.01))
    g = Geometry(deformation=DeformationFunction.discrete_shift(0.01))
    assert (g.lambda0_sq, g.sigma0) == (0.01, 0.0)
    p, q = (0.1, 0, 0, 0), ORIGIN4
    assert wf.sigma(g, p, q) == wf.sigma(Geometry.from_dict(g.to_dict()), p, q)
    assert wf.sigma(g, p, q) == pytest.approx(0.015, abs=1e-15)
    assert (Geometry.grainy(0.01, 0.03).lambda0_sq, Geometry.grainy(0.01, 0.03).sigma0) == (0.01, 0.03)
    for g in (Geometry.euclidean(3), MINK, Geometry.deformed(DeformationFunction.from_table(
            [[-1, -2], [0, 0], [1, 2]]))):
        assert (g.lambda0_sq, g.sigma0) == (0.0, 0.0)
    with pytest.raises(AttributeError):
        g.lambda0_sq = 0.5


def test_geometry_carries_a_deformation_exactly_off_the_euclidean_kind():
    assert not Geometry.euclidean(3).has_minkowski_substrate
    assert all(g.has_minkowski_substrate for g, _, _ in BUILTIN_TWINS)
    # the kind is read from the deformation, so the two cannot disagree
    assert Geometry(dim=3).kind == "euclidean"
    assert Geometry(deformation=DeformationFunction.identity()).kind == "minkowski"
    with pytest.raises(AttributeError):
        MINK.kind = "euclidean"


def test_geometry_checks_its_dimension_however_built():
    # every kind but euclidean is four-dimensional, which the slope-cell walk relies on
    with pytest.raises(wf.InvalidInputError, match="dimension 4, not 3"):
        Geometry(dim=3, deformation=DeformationFunction.identity())
    with pytest.raises(wf.InvalidInputError, match="dimension 4, not 5"):
        Geometry(dim=5, deformation=DeformationFunction.discrete_shift(0.01))
    with pytest.raises(wf.InvalidInputError, match="euclidean dimension must be >= 1"):
        Geometry(dim=0)


@pytest.mark.parametrize("dim", [2.5, True, None, "x", [3]])
def test_geometry_dimension_is_an_integer_however_built(dim):
    with pytest.raises(wf.InvalidInputError, match="dim must be an integer"):
        Geometry(dim=dim)
    with pytest.raises(wf.InvalidInputError, match="dim must be an integer"):
        Geometry.euclidean(dim)


def test_geometry_stores_an_integral_dimension_as_int():
    for dim in ("3", 3.0, np.int64(3)):
        g = Geometry(dim=dim)
        assert type(g.dim) is int and g.dim == 3
        assert Geometry.from_dict(g.to_dict()).dim == 3
    assert Geometry(dim="4", deformation=DeformationFunction.identity()).dim == 4


def test_geometry_stores_its_units_as_unit_constants():
    for g in (Geometry.euclidean(3, units={"hbar": 2}), Geometry(dim=3, units={"hbar": 2}),
              Geometry.discrete(0.01, units={"hbar": 2})):
        assert g.units == UnitConstants(hbar=2.0)
        assert g.to_dict()["units"] == {"hbar": 2.0, "c": 1.0, "b": 1.0}
    assert Geometry.minkowski(units=None).units == UnitConstants()
    with pytest.raises(wf.InvalidInputError, match="UnitConstants needs a mapping"):
        Geometry.euclidean(3, units=[2.0])
    with pytest.raises(wf.InvalidInputError, match="hbar must be positive"):
        Geometry(dim=3, units={"hbar": -1})


@pytest.mark.parametrize("deformation", [lambda x: 2 * x, "minkowski", {"lambda0_sq": 0.01}],
                         ids=["function", "name", "mapping"])
def test_geometry_rejects_a_deformation_that_is_not_a_deformation_function(deformation):
    # a plain function used to build and evaluate sigma, and then kind and
    # to_dict() raised AttributeError: 'function' object has no attribute 'table'
    with pytest.raises(wf.InvalidInputError, match="DeformationFunction or None"):
        Geometry.deformed(deformation)
    with pytest.raises(wf.InvalidInputError, match="DeformationFunction or None"):
        Geometry(deformation=deformation)


@pytest.mark.parametrize("point", [["x", 0], (0, "a"), {"a": 1}, [[0, 1], [2]]])
def test_malformed_point_is_an_input_error(point):
    # each used to leak numpy's ValueError or TypeError
    with pytest.raises(wf.InvalidInputError, match="a point must be a flat list of numbers"):
        wf.as_point(point)
    with pytest.raises(wf.InvalidInputError, match="a point must be a flat list of numbers"):
        GeomVector((0, 1), point)


def test_builtin_kind_rejects_a_deformation_of_another_kind():
    # sigma uses the deformation and from_dict(to_dict()) the kind, so the
    # kind is no field of its own: it is read from F and cannot disagree
    with pytest.raises(TypeError):
        Geometry(kind="discrete", deformation=DeformationFunction.grainy_ramp(0.01, 0.03))
    builtins = {"minkowski": DeformationFunction.identity(),
                "discrete": DeformationFunction.discrete_shift(0.01),
                "grainy": DeformationFunction.grainy_ramp(0.01, 0.03),
                "deformed": DeformationFunction.from_table([[-1, -2], [0, 0], [1, 2]])}
    p = (0.1, 0, 0, 0)
    for kind, dfun in builtins.items():
        g = Geometry(deformation=dfun)
        assert g.kind == kind
        assert wf.sigma(Geometry.from_dict(g.to_dict()), p, ORIGIN4) == wf.sigma(g, p, ORIGIN4)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("g", random_geometries(), ids=lambda g: f"{g.kind}{g.dim}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sigma_of_a_point_with_itself_is_exactly_zero(g, data):
    pts = data.draw(arrays(np.float64, (5, g.dim), elements=_FINITE))
    assert wf.sigma(g, pts[0], pts[0]) == 0.0
    assert np.array_equal(wf.sigma(g, pts, pts), np.zeros(5))


# ---------------------------------------------------------------------------
# tube radii against an exact oracle
# ---------------------------------------------------------------------------

def _exact_F(F, x):
    """F(x) in rationals, F's parameters and breakpoints read as the floats they are."""
    if F is None:
        return x
    if F.table is not None:  # the end segments extended
        tx, ty = ([Fraction(v) for v in col] for col in F.table.T.tolist())
        k = min(max(bisect.bisect_right(tx, x) - 1, 0), len(tx) - 2)
        return ty[k] + (x - tx[k]) * (ty[k + 1] - ty[k]) / (tx[k + 1] - tx[k])
    s0 = Fraction(F.sigma0)
    ramp = x / s0 if s0 and abs(x) <= s0 else (x > 0) - (x < 0)
    return x + Fraction(F.lambda0_sq) * ramp


def _exact_sigma(g, p, q):
    eta = (1, -1, -1, -1) if g.has_minkowski_substrate else (1,) * g.dim
    return _exact_F(g.deformation, sum(e * (a - b) ** 2 for e, a, b in zip(eta, p, q)) / 2)


def _exact_defect_sign(g, p0, p1, r):
    """The sign of sqrt(A_0) + sqrt(A_1) - S, A_0 = 2 sigma(p0, r), A_1 = 2 sigma(r, p1)
    and S^2 = 2 sigma(p0, p1), decided without a square root: the defect is
    negative iff S^2 - A_0 - A_1 > 0 and 4 A_0 A_1 < (S^2 - A_0 - A_1)^2.
    None off the real-distance domain."""
    a0, a1, s2 = (2 * _exact_sigma(g, *pair) for pair in ((p0, r), (r, p1), (p0, p1)))
    if a0 < 0 or a1 < 0:
        return None
    gap = s2 - a0 - a1
    return 1 if gap < 0 else (4 * a0 * a1 > gap * gap) - (4 * a0 * a1 < gap * gap)


@pytest.mark.parametrize("g,cfg,positive", [
    (Geometry.discrete(0.02), wf.TubeSamplerConfig(), 800),
    (Geometry.grainy(0.01, 0.03), wf.TubeSamplerConfig(stations=17, directions=8), 120),
], ids=["readme", "grainy"])
def test_tube_radii_bracket_the_exact_crossing(g, cfg, positive):
    # each ray b + r d is rebuilt in rationals from the sampler's float base and
    # direction; 1e-12 either side of every positive radius the exact defect
    # changes sign (a zero radius is an end station's, whose base meets tol)
    p0, p1 = np.zeros(4), np.array([2.0, 0.0, 0.0, 0.0])
    tube = wf.sample_segment_tube(g, p0, p1, cfg)
    _, _, vt = np.linalg.svd((p1 / 2.0)[None, :])  # the sampler's directions, drawn as it draws them
    raw = np.random.default_rng(cfg.seed).normal(size=(cfg.directions, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw @ vt[1:]
    ends = [[Fraction(v) for v in p.tolist()] for p in (p0, p1)]
    delta = Fraction(1, 10**12)
    stations, rays = np.nonzero(tube.radii > 0.0)
    assert len(rays) == positive
    for s, d in zip(stations, rays):
        b, e = ([Fraction(v) for v in row.tolist()] for row in (tube.base_points[s], dirs[d]))
        r = Fraction(float(tube.radii[s, d]))
        signs = [_exact_defect_sign(g, *ends, [bi + t * ei for bi, ei in zip(b, e)])
                 for t in (r - delta, r + delta)]
        assert None not in signs and signs[0] * signs[1] <= 0, (s, d, signs)


_TABLE_F = Geometry.deformed(DeformationFunction.from_table(
    [[-2.0, -2.1], [-0.5, -0.52], [0.0, 0.0], [0.5, 0.53], [2.0, 2.1]]))


@pytest.mark.parametrize("g,p1,cfg", [
    (Geometry.discrete(0.02), (2, 0, 0, 0), None),
    (Geometry.grainy(0.01, 0.03), (2, 0, 0, 0), None),
    (_TABLE_F, (2, 0, 0, 0), None),
    (EUCLID3, (2, 0, 0), None),
    (Geometry.discrete(0.02), (2, 0, 0, 0), wf.TubeSamplerConfig(stations=0)),
    (Geometry.discrete(0.02), (2, 0, 0, 0), wf.TubeSamplerConfig(directions=0)),
    (_TABLE_F, (2, 0, 0, 0), wf.TubeSamplerConfig(max_radius=0.0)),
], ids=["readme", "grainy", "table", "euclidean", "no-stations", "no-directions", "no-radius"])
def test_tube_sampling_raises_no_numpy_warning(g, p1, cfg):
    # the README's and the Euclidean unbracketed rays have quadratics of negative
    # discriminant; the grainy and table brackets end on the light cone, where
    # Newton meets a side A_k = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tube = wf.sample_segment_tube(g, (0,) * g.dim, p1, cfg)
    assert tube.rays_without_crossing == np.isnan(tube.radii).sum()
