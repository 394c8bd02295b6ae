"""Skeletons, envelope expressions, the cylinder, and skeleton equivalence."""

import numpy as np
import pytest

import worldfunc as wf
import worldfunc.objects as objects
from worldfunc import Const, Envelope, Geometry, GeomVector, Op, SigmaTerm, Skeleton


EUCLID3 = Geometry.euclidean(3)
MINK = Geometry.minkowski()


def sphere_envelope():
    # sigma(P0, R) - sigma(P0, P1): the sphere through P1 centered at P0
    return Envelope.from_expression(Op("-", (SigmaTerm("P0", "R"), SigmaTerm("P0", "P1"))))


# ---------------------------------------------------------------------------
# skeleton basics
# ---------------------------------------------------------------------------

def test_skeleton_needs_two_points():
    with pytest.raises(wf.InvalidInputError):
        Skeleton(((0, 0, 0),))


def test_skeleton_dimension_consistency():
    with pytest.raises(wf.DimensionMismatchError):
        Skeleton(((0, 0, 0), (1, 1)))


@pytest.mark.parametrize("points,match", [
    (5, "a skeleton takes a sequence of points, got int"),
    (None, "a skeleton takes a sequence of points, got NoneType"),
    ({"a": (0, 0, 0)}, "a point must be a flat list of numbers"),
    ([(0, "x", 0), (1, 0, 0)], "a point must be a flat list of numbers"),
])
def test_malformed_skeleton_is_an_input_error(points, match):
    # Skeleton(5) used to raise TypeError, a string coordinate numpy's ValueError
    with pytest.raises(wf.InvalidInputError, match=match):
        Skeleton(points)


def test_skeleton_labels():
    sk = Skeleton(((0, 0), (1, 0), (0, 1)))
    assert sk.labels == ["P0", "P1", "P2"] and len(sk) == 3


# ---------------------------------------------------------------------------
# envelope evaluation
# ---------------------------------------------------------------------------

def test_constant_zero_envelope():
    env = Envelope.from_expression(Const(0.0))
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    for r in ((0, 0, 0), (5, 5, 5), (-1, 2, 0.5)):
        assert wf.evaluate_envelope(EUCLID3, sk, env, r) == 0.0


def test_sphere_envelope_zero_at_p1():
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    env = sphere_envelope()
    assert wf.evaluate_envelope(EUCLID3, sk, env, (1, 0, 0)) == 0.0
    assert wf.object_membership(EUCLID3, sk, env, (1, 0, 0))
    assert not wf.object_membership(EUCLID3, sk, env, (0, 0, 0))


def test_envelope_division_by_zero_reports_node():
    env = Envelope.from_expression(
        Op("+", (Const(1.0), Op("/", (Const(1.0), SigmaTerm("P0", "R"))))))
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(wf.EnvelopeEvalError) as err:
        wf.evaluate_envelope(EUCLID3, sk, env, (0, 0, 0))
    assert err.value.node_path == "/args[1]"


def test_envelope_sum_negation_and_quotient():
    # Euclidean sigma is |x|^2 / 2: sigma(P0, R) = 2 and sigma(P0, P1) = 0.5 at R = (2, 0, 0)
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    s_r, s_1 = SigmaTerm("P0", "R"), SigmaTerm("P0", "P1")
    for root, want in ((Op("+", (s_r, Const(1.0), s_1)), 3.5),
                       (Op("-", (s_r,)), -2.0),
                       (Op("/", (s_r, s_1)), 4.0)):
        assert wf.evaluate_envelope(EUCLID3, sk, Envelope.from_expression(root), (2, 0, 0)) == want
    batch = wf.evaluate_envelope(EUCLID3, sk, Envelope.from_expression(Op("/", (s_r, s_1))),
                                 [(2, 0, 0), (0, 1, 0)])
    assert batch.tolist() == [4.0, 1.0]


@pytest.mark.parametrize("root, message", [
    (Op("-", (Const(1.0), Const(2.0), Const(3.0))), "'-' takes one or two args at /"),
    (Op("-", ()), "'-' takes one or two args at /"),
    (Op("+", (Const(1.0), Op("/", (Const(1.0),)))), r"'/' takes two args at /args\[1\]"),
])
def test_envelope_op_arity_is_an_input_error(root, message):
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(wf.InvalidInputError, match=message):
        wf.evaluate_envelope(EUCLID3, sk, Envelope.from_expression(root), (0, 0, 0))


def test_envelope_unknown_label_rejected():
    env = Envelope.from_expression(SigmaTerm("P7", "R"))
    sk = Skeleton(((0, 0, 0), (1, 0, 0)))
    with pytest.raises(wf.InvalidInputError):
        wf.evaluate_envelope(EUCLID3, sk, env, (0, 0, 0))


@pytest.mark.parametrize("d,message", [
    ({"op": "const"}, "malformed envelope node at /: KeyError: 'value'"),
    ([1, 2], "malformed envelope node at /: AttributeError"),
    ({"op": "const", "value": "x"}, "malformed envelope node at /: ValueError"),
    ({"op": "+", "args": 5}, "malformed envelope node at /: TypeError"),
    ({"op": "-", "args": [{"op": "const", "value": 1}, {"op": "*", "args": [7]}]},
     "malformed envelope node at /args[1]/args[0]: AttributeError"),
    ({"op": "+", "args": [{"op": "sigma", "points": ["P0"]}]},
     "malformed envelope node at /args[0]: ValueError"),
    ({"op": "+", "args": [{"op": "pow"}]}, "unknown envelope op 'pow' at /args[0]"),
])
def test_malformed_envelope_dict_names_the_node(d, message):
    # these used to raise KeyError, AttributeError, ValueError or TypeError
    with pytest.raises(wf.InvalidInputError) as err:
        Envelope.from_dict(d)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("kind, root, message", [
    ("sphere", None, "unknown envelope kind 'sphere'"),
    ("expression", None, "expression envelope needs a root node"),
], ids=["unknown-kind", "expression-without-root"])
def test_envelope_kind_and_root_checked(kind, root, message):
    with pytest.raises(wf.InvalidInputError, match=message):
        Envelope(kind, root)


def test_envelope_root_that_is_not_a_node_is_an_input_error():
    # a bare label where a SigmaTerm belongs: neither serialised nor evaluated
    env = Envelope.from_expression("P0")
    sk = Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(wf.InvalidInputError, match="not an envelope node: 'P0'"):
        env.to_dict()
    with pytest.raises(wf.InvalidInputError, match="not an envelope node at /: 'P0'"):
        wf.evaluate_envelope(EUCLID3, sk, env, (1, 1, 1))


def test_probe_batch_of_the_wrong_dimension_is_rejected():
    sk = Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(wf.DimensionMismatchError, match="dimension 2 against a skeleton of dimension 3"):
        wf.evaluate_envelope(EUCLID3, sk, Envelope.cylinder(), np.zeros((5, 2)))


def test_cylinder_envelope_needs_three_point_skeleton():
    sk = Skeleton(((0, 0, 0), (0, 0, 1)))
    with pytest.raises(wf.InvalidInputError):
        wf.evaluate_envelope(EUCLID3, sk, Envelope.cylinder(), (1, 0, 0))


def test_envelope_serialization_roundtrip():
    env = Envelope.from_expression(
        Op("*", (Const(2.0), Op("-", (SigmaTerm("P0", "R"), SigmaTerm("P1", "R"))))))
    env2 = Envelope.from_dict(env.to_dict())
    sk = Skeleton(((0, 0, 0), (1, 1, 1)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.uniform(-2, 2, 3)
        assert wf.evaluate_envelope(EUCLID3, sk, env, r) == \
            wf.evaluate_envelope(EUCLID3, sk, env2, r)
    cyl = Envelope.from_dict(Envelope.cylinder().to_dict())
    assert cyl.kind == "cylinder"


# ---------------------------------------------------------------------------
# gram determinant and the cylinder
# ---------------------------------------------------------------------------

def test_gram_f2_orthonormal_unit_square():
    assert wf.gram_F2(EUCLID3, (0, 0, 0), (1, 0, 0), (0, 1, 0)) == 1.0


def test_gram_f2_collinear_degenerate():
    assert wf.gram_F2(EUCLID3, (0, 0, 0), (1, 0, 0), (2, 0, 0)) == 0.0


def test_gram_f2_example_value():
    # hand evaluation: s11 = 1, s22 = 5, s12 = 1 -> 1*5 - 1 = 4
    assert wf.gram_F2(EUCLID3, (0, 0, 0), (1, 0, 0), (1, 2, 0)) == 4.0


def test_gram_f2_nonnegative_euclidean_iff_collinear():
    rng = np.random.default_rng(1)
    for _ in range(300):
        p0, p1, q = rng.uniform(-2, 2, (3, 3))
        f2 = wf.gram_F2(EUCLID3, p0, p1, q)
        assert f2 >= -1e-9
        col = wf.is_collinear(EUCLID3, GeomVector(p0, p1), GeomVector(p0, q), 1e-9)
        assert col.collinear == (abs(f2) <= 1e-9 * col.scale ** 2)


def test_cylinder_envelope_zero_on_its_surface_point():
    assert wf.cylinder_envelope(EUCLID3, (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0)) == 0.0


def test_cylinder_envelope_radius_two_value():
    # coordinate oracle for orthogonal offsets: F2 = |axis|^2 r^2, so
    # f = 1*(1 - 4) = -3
    got = wf.cylinder_envelope(EUCLID3, (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 2, 0))
    assert got == -3.0


def test_cylinder_envelope_differs_under_discrete_deformation():
    g = Geometry.discrete(0.01)
    p0, p1, q, r = (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 2, 0)
    v_deformed = wf.cylinder_envelope(g, p0, p1, q, r)
    v_flat = wf.cylinder_envelope(MINK, p0, p1, q, r)
    assert v_deformed != v_flat


def test_cylinder_membership_matches_distance_to_axis():
    sk = Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    env = Envelope.cylinder()
    rng = np.random.default_rng(2)
    for _ in range(500):
        r = rng.uniform(-2, 2, 3)
        dist = np.hypot(r[0], r[1])  # axis is the z axis, Q at radius 1
        member = wf.object_membership(EUCLID3, sk, env, r, 1e-9)
        assert member == (abs(dist - 1.0) < 1e-10)
        # surface points constructed exactly
    th = rng.uniform(0, 2 * np.pi, 200)
    z = rng.uniform(-1, 2, 200)
    on_surface = np.stack([np.cos(th), np.sin(th), z], axis=1)
    assert wf.object_membership(EUCLID3, sk, env, on_surface, 1e-9).all()


def test_batched_envelope_matches_scalar():
    sk = Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    env = Envelope.cylinder()
    rng = np.random.default_rng(3)
    probes = rng.uniform(-2, 2, (50, 3))
    batch = wf.evaluate_envelope(EUCLID3, sk, env, probes)
    for i, p in enumerate(probes):
        assert batch[i] == wf.evaluate_envelope(EUCLID3, sk, env, p)


@pytest.mark.parametrize("g", [EUCLID3, MINK, Geometry.discrete(0.01)], ids=lambda g: g.kind)
def test_membership_scale_matches_the_per_point_loop(g):
    # the per-point loop the batched envelope call replaced, kept as reference
    rng = np.random.default_rng(8)
    sk = Skeleton(tuple(rng.uniform(-1.0, 1.0, (3, g.dim))))
    for env in (Envelope.cylinder(), sphere_envelope(), Envelope.from_expression(Const(-4.0))):
        want = max(1.0, *[abs(wf.evaluate_envelope(g, sk, env, p)) for p in sk.points])
        assert np.float64(objects._membership_scale(g, sk, env)).tobytes() \
            == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# skeleton equivalence
# ---------------------------------------------------------------------------

def test_skeletons_equivalent_identity():
    sk = Skeleton(((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)))
    rep = wf.skeletons_equivalent(MINK, sk, sk)
    assert rep.equivalent and rep.failing_pairs == ()


def test_skeletons_equivalent_translation():
    a = Skeleton(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    t = np.array([5.0, -2.0, 3.0])
    b = Skeleton(tuple(np.asarray(p, float) + t for p in a.points))
    rep = wf.skeletons_equivalent(EUCLID3, a, b)
    assert rep.equivalent


def test_skeletons_equivalent_localizes_failing_pair():
    a = Skeleton(((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)))
    b = Skeleton(((0, 0, 0, 0), (0.7, 1, 0, 0.7), (1, 0, 0, 0)))
    rep = wf.skeletons_equivalent(MINK, a, b)
    assert not rep.equivalent
    # pairs (0,1) and (0,2) still match; the mixed pair (1,2) breaks the
    # length condition
    assert rep.report(0, 1).equivalent
    assert rep.report(0, 2).equivalent
    assert rep.failing_pairs == ((1, 2),)
    assert abs(rep.report(1, 2).residual_length) > 0.1


def test_skeletons_equivalent_symmetric():
    a = Skeleton(((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)))
    b = Skeleton(((0, 0, 0, 0), (0.7, 1, 0, 0.7), (1, 0, 0, 0)))
    assert wf.skeletons_equivalent(MINK, a, b).equivalent == \
        wf.skeletons_equivalent(MINK, b, a).equivalent


def _report_bits(rep):
    return rep.equivalent, np.array([rep.residual_parallel, rep.residual_length,
                                     rep.scale, rep.tol]).tobytes()


@pytest.mark.parametrize("g", [EUCLID3, MINK, Geometry.discrete(0.01), Geometry.grainy(0.01, 0.03)],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("size", [2, 3, 5])
def test_skeletons_equivalent_matches_the_per_pair_loop_bitwise(g, size):
    rng = np.random.default_rng(size)
    for trial in range(20):
        a = rng.uniform(-1.0, 1.0, (size, g.dim))
        # translated copies (equivalent) or independent skeletons
        b = a + rng.uniform(-2.0, 2.0, g.dim) if trial % 2 else rng.uniform(-1.0, 1.0, (size, g.dim))
        rep = wf.skeletons_equivalent(g, Skeleton(tuple(a)), Skeleton(tuple(b)))
        # the per-pair loop the batched call replaced, kept as reference
        want = {(i, k): wf.is_equivalent(g, GeomVector(a[i], a[k]), GeomVector(b[i], b[k]))
                for i in range(size) for k in range(i + 1, size)}
        assert list(rep.pair_reports) == list(want)
        assert all(_report_bits(rep.pair_reports[p]) == _report_bits(w) for p, w in want.items())
        assert rep.failing_pairs == tuple(p for p, w in want.items() if not w.equivalent)
        assert rep.equivalent == all(w.equivalent for w in want.values())


def test_skeletons_equivalent_size_mismatch():
    a = Skeleton(((0, 0), (1, 0)))
    b = Skeleton(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(wf.InvalidInputError):
        wf.skeletons_equivalent(Geometry.euclidean(2), a, b)


# ---------------------------------------------------------------------------
# object splitting of collinear-axis cylinders
# ---------------------------------------------------------------------------

def test_collinear_axis_cylinders_coincide_euclidean_split_discrete():
    # Euclidean: C(P0,P1,Q) and C(P0,P2,Q) with collinear axes define the
    # same membership set; the discrete deformation splits them
    rng = np.random.default_rng(4)
    sk1 = Skeleton(((0, 0, 0), (0, 0, 1), (1, 0, 0)))
    sk2 = Skeleton(((0, 0, 0), (0, 0, 2), (1, 0, 0)))
    env = Envelope.cylinder()
    th = rng.uniform(0, 2 * np.pi, 1000)
    z = rng.uniform(0, 1, 1000)
    surface = np.stack([np.cos(th), np.sin(th), z], axis=1)
    volume = rng.uniform(-2, 2, (1000, 3))
    probes = np.vstack([surface, volume])
    m1 = wf.object_membership(EUCLID3, sk1, env, probes, 1e-9)
    m2 = wf.object_membership(EUCLID3, sk2, env, probes, 1e-9)
    assert int((m1 != m2).sum()) == 0
    assert m1[:1000].all()

    g = Geometry.discrete(0.01)
    p0, p1, p2, q = (np.zeros(4), np.array([0.0, 0, 0, 1]),
                     np.array([0.0, 0, 0, 2]), np.array([0.0, 1, 0, 0]))
    d1 = Skeleton((p0, p1, q))
    d2 = Skeleton((p0, p2, q))
    # members of the first deformed cylinder, found by radial root-finding
    from scipy.optimize import brentq
    disagreements = 0
    for theta, zz in zip(rng.uniform(0, 2 * np.pi, 40), rng.uniform(0.1, 0.9, 40)):
        def f(r):
            pt = np.array([0.0, r * np.cos(theta), r * np.sin(theta), zz])
            return wf.cylinder_envelope(g, p0, p1, q, pt)
        grid = np.linspace(1e-3, 3.0, 60)
        vals = [f(r) for r in grid]
        bracket = next(((grid[i - 1], grid[i]) for i in range(1, 60)
                        if vals[i - 1] * vals[i] <= 0), None)
        if bracket is None:
            continue
        r_star = brentq(f, *bracket, xtol=1e-14)
        pt = np.array([0.0, r_star * np.cos(theta), r_star * np.sin(theta), zz])
        in1 = wf.object_membership(g, d1, env, pt, 1e-9)
        in2 = wf.object_membership(g, d2, env, pt, 1e-9)
        assert in1
        if in1 != in2:
            disagreements += 1
    assert disagreements >= 1
