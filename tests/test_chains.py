"""World-chain dynamics: deflection law, stepping, link verification,
ensembles and their determinism."""

import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import worldfunc as wf
from worldfunc import ChainParams, Geometry, Skeleton, UnitConstants, WorldChain


MINK = Geometry.minkowski()


def mdot(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return x[0] * y[0] - float(x[1:] @ y[1:])


def link_vectors(chain):
    return [np.asarray(link[1], float) - np.asarray(link[0], float) for link in chain.links]


# ---------------------------------------------------------------------------
# scalar laws
# ---------------------------------------------------------------------------

def test_deflection_zero_deformation():
    assert wf.deflection_angle(0.0, 0.5) == 0.0


def test_deflection_values_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for d, sigma_m in ((0.005, 0.5), (0.01, 0.5), (0.02, 1.0)):
        want = float(2 * mpmath.asinh(mpmath.sqrt(mpmath.mpf(d) / (2 * mpmath.mpf(sigma_m)))))
        assert wf.deflection_angle(d, sigma_m) == pytest.approx(want, abs=1e-15)
    # frozen oracle values: 2 asinh(sqrt(0.005)) and 2 asinh(0.1)
    assert wf.deflection_angle(0.005, 0.5) == pytest.approx(0.141303769486, abs=1e-12)
    assert wf.deflection_angle(0.01, 0.5) == pytest.approx(0.199668157798, abs=1e-12)
    # the defining relation of the second case holds exactly
    assert math.sinh(wf.deflection_angle(0.01, 0.5) / 2) == pytest.approx(0.1, abs=1e-15)


def test_deflection_satisfies_dynamic_equation_form():
    # with vanishing cross-pair correction and constant deformation the
    # dynamic equation reads 2 sinh^2(dphi/2) = 2 d / (2 sigma_M)
    for d, sigma_m in ((0.005, 0.5), (0.01, 0.5), (0.3, 2.0)):
        dphi = wf.deflection_angle(d, sigma_m)
        lhs = 2.0 * math.sinh(dphi / 2.0) ** 2
        rhs = 2.0 * d / (2.0 * sigma_m)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_deflection_rejects_bad_arguments():
    with pytest.raises(wf.InvalidInputError):
        wf.deflection_angle(0.01, 0.0)
    with pytest.raises(wf.InvalidInputError):
        wf.deflection_angle(-0.01, 0.5)


@pytest.mark.parametrize("d,sigma_m", [(math.nan, 0.5), (math.inf, 0.5), (0.01, math.inf),
                                       (0.01, math.nan)])
def test_deflection_rejects_non_finite_arguments(d, sigma_m):
    # deflection_angle(nan, 0.5) returned nan, deflection_angle(0.01, inf) returned 0.0
    with pytest.raises(wf.InvalidInputError, match="must be finite"):
        wf.deflection_angle(d, sigma_m)


def test_particle_mass():
    assert wf.particle_mass(UnitConstants(b=1.0), 1.0) == 1.0
    assert wf.particle_mass(UnitConstants(b=2.0), 1.0) == 2.0
    with pytest.raises(wf.InvalidInputError):
        wf.particle_mass(UnitConstants(), 0.0)
    # an infinite link length used to give an infinite mass
    for two_sigma in (math.inf, math.nan):
        with pytest.raises(wf.InvalidInputError, match="two_sigma_link must be finite"):
            wf.particle_mass(UnitConstants(), two_sigma)


def test_w_correction_constant_deformation_on_generic_points():
    # all four pairwise arguments timelike: pairwise cancellation
    pts = [np.array([10.0 * k, 0.1 * k, 0, 0]) for k in range(4)]
    assert wf.w_correction(lambda sm: 0.01 * np.sign(sm), *pts) == 0.0
    assert wf.w_correction(lambda sm: 0.0, *pts) == 0.0
    assert wf.w_correction(lambda sm: 0.42, *pts) == 0.0


def test_w_correction_nonzero_on_chain_connectivity():
    # adjacent pointlike links share a point, so one deformation argument is
    # d(0) = 0 and the cancellation breaks: w = -d for the discrete shift
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=3, ensemble=1, seed=0)
    chain = wf.generate_chain(params)
    dfun = lambda sm: wf.deformation_value(g, sm)
    s0, s1 = chain[0], chain[1]
    w = wf.w_correction(dfun, s0[0], s0[1], s1[0], s1[1])
    assert w == pytest.approx(-0.005, abs=1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_chain_zero_deformation_is_collinear():
    params = ChainParams(geometry=MINK, link_sigma_m=0.5, steps=1, ensemble=1, seed=0)
    rng = wf.chain_rng(0, 0)
    state = (np.zeros(4), np.array([1.0, 0, 0, 0]))
    p1, p2 = wf.step_chain(state, params, rng)
    assert np.array_equal(p1, state[1])
    assert np.array_equal(p2 - p1, state[1] - state[0])


def test_step_chain_angle_and_length():
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=1, ensemble=1, seed=0)
    rng = wf.chain_rng(1, 0)
    state = (np.zeros(4), np.array([1.0, 0, 0, 0]))
    want = wf.deflection_angle(0.005, 0.5)
    for _ in range(100):
        state = wf.step_chain(state, params, rng)
    chain_dirs = []
    state = (np.zeros(4), np.array([1.0, 0, 0, 0]))
    prev = state[1] - state[0]
    for _ in range(50):
        state = wf.step_chain(state, params, rng)
        cur = state[1] - state[0]
        cosh_phi = mdot(prev, cur) / math.sqrt(mdot(prev, prev) * mdot(cur, cur))
        assert abs(math.acosh(max(1.0, cosh_phi)) - want) < 1e-9
        assert abs(mdot(cur, cur) - 1.0) < 1e-12
        prev = cur


def test_step_chain_rejects_non_timelike_state():
    params = ChainParams(geometry=MINK, link_sigma_m=0.5, steps=1, ensemble=1, seed=0)
    with pytest.raises(wf.InvalidStateError):
        wf.step_chain((np.zeros(4), np.array([0.0, 1, 0, 0])), params, wf.chain_rng(0, 0))


def test_generate_chain_connectivity():
    params = ChainParams(geometry=Geometry.discrete(0.01), link_sigma_m=0.5,
                         steps=20, ensemble=1, seed=5)
    chain = wf.generate_chain(params)
    assert len(chain) == 21
    for s in range(len(chain) - 1):
        assert np.array_equal(chain[s][1], chain[s + 1][0])


# ---------------------------------------------------------------------------
# link verification
# ---------------------------------------------------------------------------

def test_verify_straight_minkowski_chain_zero_residuals():
    params = ChainParams(geometry=MINK, link_sigma_m=0.5, steps=10, ensemble=1, seed=0)
    chain = wf.generate_chain(params)
    reports = wf.verify_link_equivalence(MINK, chain)
    assert all(r.ok for r in reports)
    assert max(r.max_abs_residual for r in reports) == 0.0


def test_verify_needs_a_minkowski_substrate():
    chain = WorldChain((Skeleton(((0, 0, 0), (1, 0, 0))), Skeleton(((1, 0, 0), (2, 0, 0)))))
    with pytest.raises(wf.WorldFunctionError, match="needs a Minkowski-substrate geometry"):
        wf.verify_link_equivalence(Geometry.euclidean(3), chain)


def test_verify_discrete_chain_reports_connectivity_offset():
    # the cone construction solves the deflection law, but the shared chain
    # point sees d(0) = 0, so the parallel residual in the full deformed
    # geometry is exactly -d while the length residual vanishes
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=30, ensemble=1, seed=2)
    chain = wf.generate_chain(params)
    reports = wf.verify_link_equivalence(g, chain)
    for r in reports:
        pair = r.pair_reports[(0, 1)]
        assert abs(pair.residual_length) < 1e-12
        assert pair.residual_parallel == pytest.approx(-0.005, abs=1e-12)


def test_verify_localizes_perturbed_point():
    params = ChainParams(geometry=MINK, link_sigma_m=0.5, steps=8, ensemble=1, seed=1)
    chain = wf.generate_chain(params)
    pts = [np.asarray(link[0], float).copy() for link in chain.links]
    pts.append(np.asarray(chain.links[-1][1], float).copy())
    pts[4] = pts[4] + np.array([0.0, 0.05, 0, 0])  # shared by links 3 and 4
    broken = WorldChain(tuple(Skeleton((pts[k], pts[k + 1])) for k in range(len(pts) - 1)))
    reports = wf.verify_link_equivalence(MINK, broken)
    bad_steps = {r.step for r in reports if not r.ok}
    assert bad_steps == {2, 3, 4}  # steps comparing links 2|3, 3|4, 4|5
    assert all(r.max_abs_residual < 1e-12 for r in reports if r.step not in bad_steps)


def test_verify_accepts_composite_skeleton_chains():
    # three-point skeletons translated along the time axis stay equivalent
    base = [np.array([0.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]), np.array([1.0, 0.1, 0, 0])]
    shift = np.array([1.0, 0, 0, 0])
    links = [Skeleton(tuple(p + k * shift for p in base)) for k in range(4)]
    chain = WorldChain(tuple(links))
    reports = wf.verify_link_equivalence(MINK, chain)
    assert all(r.ok for r in reports)
    assert set(reports[0].pair_reports) == {(0, 1), (0, 2), (1, 2)}


def _verify_reference(g, chain, tol=1e-9):
    # the per-pair double loop the batched check replaced, kept as reference
    out = []
    size = len(chain[0])
    for s in range(len(chain) - 1):
        cur, nxt = chain[s], chain[s + 1]
        reports, worst, ok = {}, 0.0, True
        for k in range(size):
            for l in range(k + 1, size):
                rep = wf.is_equivalent(g, wf.GeomVector(cur[k], cur[l]),
                                       wf.GeomVector(nxt[k], nxt[l]), tol)
                reports[(k, l)] = rep
                worst = max(worst, abs(rep.residual_parallel), abs(rep.residual_length))
                ok = ok and rep.equivalent
        out.append((s, reports, worst, ok))
    return out


def _composite_chain(rng, links, size):
    # random size-point skeletons, link s+1 starting where link s ends (point 1)
    pts = rng.uniform(-1.0, 1.0, (links, size, 4))
    pts[1:, 0] = pts[:-1, 1]
    return WorldChain(tuple(Skeleton(tuple(p)) for p in pts))


@pytest.mark.parametrize("g", [MINK, Geometry.discrete(0.005), Geometry.grainy(0.01, 0.03)],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("make", ["generated-200", "composite-2", "composite-3", "one-link"])
def test_verify_link_equivalence_matches_the_per_pair_loop_bitwise(g, make):
    if make == "generated-200":
        chain = wf.generate_chain(ChainParams(geometry=g, link_sigma_m=0.5, steps=200, seed=4))
    else:
        links = 1 if make == "one-link" else 40
        chain = _composite_chain(np.random.default_rng(6), links, 3 if make.endswith("3") else 2)
    got = wf.verify_link_equivalence(g, chain)
    want = _verify_reference(g, chain)
    assert len(got) == len(want) == len(chain) - 1
    for r, (s, reports, worst, ok) in zip(got, want):
        assert (r.step, r.ok, list(r.pair_reports)) == (s, ok, list(reports))
        assert np.float64(r.max_abs_residual).tobytes() == np.float64(worst).tobytes()
        for pair, rep in reports.items():
            mine = r.pair_reports[pair]
            assert mine.equivalent == rep.equivalent
            assert np.array([mine.residual_parallel, mine.residual_length, mine.scale]).tobytes() \
                == np.array([rep.residual_parallel, rep.residual_length, rep.scale]).tobytes()


@pytest.mark.parametrize("links, message", [
    ((), "a world chain needs at least one link"),
    (((np.zeros(4), np.ones(4)),), "chain links must be skeletons"),
    ((Skeleton((np.zeros(4), np.ones(4))), Skeleton((np.ones(4), np.zeros(4), np.full(4, 2.0)))),
     "all links must have the same skeleton size"),
], ids=["no-links", "tuple-link", "mixed-sizes"])
def test_worldchain_rejects_malformed_links(links, message):
    with pytest.raises(wf.InvalidInputError, match=message):
        WorldChain(links)


def test_worldchain_rejects_broken_connectivity():
    a = Skeleton((np.zeros(4), np.array([1.0, 0, 0, 0])))
    b = Skeleton((np.array([2.0, 0, 0, 0]), np.array([3.0, 0, 0, 0])))
    with pytest.raises(wf.InvalidInputError):
        WorldChain((a, b))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_zero_deformation_zero_variance():
    params = ChainParams(geometry=MINK, link_sigma_m=0.5, steps=50, ensemble=20, seed=0)
    stats = wf.simulate_ensemble(params)
    assert np.array_equal(stats.var_transverse, np.zeros(50))
    assert np.array_equal(stats.mean_angle, np.zeros(50))
    assert np.array_equal(stats.mean_t, np.full(50, math.sqrt(1.0)))


def test_ensemble_variance_strictly_increasing():
    params = ChainParams(geometry=Geometry.discrete(0.01), link_sigma_m=0.5,
                         steps=12, ensemble=5000, seed=4)
    stats = wf.simulate_ensemble(params)
    assert stats.var_transverse[0] > 0
    assert np.all(np.diff(stats.var_transverse) > 0)


def test_ensemble_angles_exact_per_step():
    params = ChainParams(geometry=Geometry.discrete(0.02), link_sigma_m=1.0,
                         steps=40, ensemble=30, seed=9)
    stats = wf.simulate_ensemble(params)
    want = wf.deflection_angle(0.02, 1.0)
    assert np.abs(stats.mean_angle - want).max() < 1e-9
    assert stats.link_length_drift.max() < 1e-12


def test_ensemble_bit_identical_reruns():
    params = ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=0.5,
                         steps=64, ensemble=64, seed=11)
    s1 = wf.simulate_ensemble(params)
    s2 = wf.simulate_ensemble(params)
    assert np.array_equal(s1.mean_t, s2.mean_t)
    assert np.array_equal(s1.var_transverse, s2.var_transverse)
    assert np.array_equal(s1.mean_angle, s2.mean_angle)


def test_ensemble_matches_scalar_stepping():
    params = ChainParams(geometry=Geometry.discrete(0.01), link_sigma_m=0.5,
                         steps=25, ensemble=4, seed=13)
    _, points = wf.simulate_ensemble(params, keep_chains=True)
    for i in range(4):
        chain = wf.generate_chain(params, chain_index=i)
        ref = np.stack([np.asarray(link[0], float) for link in chain.links]
                       + [np.asarray(chain.links[-1][1], float)])
        assert np.abs(ref - points[i]).max() < 1e-13


@pytest.mark.parametrize("lam", [0.005, 1e-5])
def test_ensemble_mean_t_matches_the_exact_oracle(lam):
    # the boost gives u0' = cosh(dphi) u0 + sinh(dphi) |v| cos(theta) with a
    # uniform azimuth, E cos(theta) = 0: so E mean_t[k - 1] = length cosh^k(dphi).
    # The first link is the same for every chain, exact up to rounding.
    params = ChainParams(geometry=Geometry.discrete(lam), link_sigma_m=0.5,
                         steps=100, ensemble=1000, seed=42)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    link_t = np.diff(points[:, 1:, 0], axis=1)  # (ensemble, steps): time component of link k
    length = math.sqrt(2.0 * params.link_sigma_m)
    for k in (1, 10, 100):
        want = length * math.cosh(params.deflection) ** k
        se = link_t[:, k - 1].std(ddof=1) / math.sqrt(params.ensemble)
        assert abs(stats.mean_t[k - 1] - want) <= 4.0 * se + 1e-14 * want


@pytest.mark.parametrize("lam", [0.005, 1e-5])
def test_ensemble_var_transverse_matches_the_exact_oracle(lam):
    # |v_k|^2 = (2/3)((1 + 1.5 sinh^2 dphi)^k - 1) in expectation, and
    # var_transverse is the (ddof = 0) ensemble variance of length * v, so
    # E var_transverse[k - 1] = length^2 E|v_k|^2 (E - 1) / E; it is the mean of
    # the per-chain squared deviations, checked against their standard error
    params = ChainParams(geometry=Geometry.discrete(lam), link_sigma_m=0.5,
                         steps=100, ensemble=1000, seed=42)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    links = np.diff(points[:, 1:, 1:], axis=1)  # (ensemble, steps, 3): length * v of link k
    length, E = math.sqrt(2.0 * params.link_sigma_m), params.ensemble
    for k in (1, 10, 100):
        v_sq = 2.0 / 3.0 * ((1.0 + 1.5 * math.sinh(params.deflection) ** 2) ** k - 1.0)
        want = length ** 2 * v_sq * (E - 1) / E
        dev = ((links[:, k - 1] - links[:, k - 1].mean(axis=0)) ** 2).sum(axis=1)
        se = dev.std(ddof=1) / math.sqrt(E)
        assert abs(stats.var_transverse[k - 1] - want) <= 4.0 * se


def test_chain_params_validation():
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=Geometry.euclidean(3), link_sigma_m=0.5, steps=5)
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=MINK, link_sigma_m=-1.0, steps=5)
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=MINK, link_sigma_m=0.5, steps=0)
    with pytest.raises(wf.InvalidInputError, match="seed must be >= 0"):
        ChainParams(geometry=MINK, link_sigma_m=0.5, steps=5, seed=-1)
    with pytest.raises(wf.InvalidInputError, match="link_sigma_m must be finite"):
        ChainParams(geometry=MINK, link_sigma_m=math.inf, steps=5)


@pytest.mark.parametrize("link_sigma_m", [1e308, 1e-320, 1.67e-311])
def test_chain_params_reject_a_link_whose_length_or_tilt_is_not_finite(link_sigma_m):
    # 1e308: length sqrt(2 sigma) = inf at deflection 0.0; 1e-320: deflection inf, so
    # simulate_ensemble reported an overflow at step 1; 1.67e-311: deflection 710.99,
    # whose cosh raised OverflowError
    with pytest.raises(wf.InvalidInputError, match="link_sigma_m"):
        ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=link_sigma_m, steps=5)


def test_chain_params_roundtrip_and_derived():
    params = ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=0.5,
                         steps=10, ensemble=2, seed=3)
    back = ChainParams.from_dict(params.to_dict())
    assert back.link_sigma_m == 0.5 and back.geometry.kind == "discrete"
    assert params.deformation_strength == 0.005
    assert params.deflection == wf.deflection_angle(0.005, 0.5)


@pytest.mark.parametrize("field,value", [("steps", 3.9), ("ensemble", 2.5), ("seed", True),
                                         ("steps", "3.9")])
def test_chain_params_from_dict_rejects_non_integral_counts(field, value):
    # from_dict used to truncate: "steps": 3.9 ran 3 steps
    d = {**ChainParams(geometry=MINK, link_sigma_m=0.5, steps=5).to_dict(), field: value}
    with pytest.raises(wf.InvalidInputError, match=f"{field} must be an integer"):
        ChainParams.from_dict(d)
    d[field] = 4.0 if field != "seed" else "4"
    assert getattr(ChainParams.from_dict(d), field) == 4


def test_mass_constant_along_chain():
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=30, ensemble=1, seed=6)
    chain = wf.generate_chain(params)
    units = UnitConstants()
    masses = [wf.particle_mass(units, 2.0 * wf.sigma(g, link[0], link[1]))
              for link in chain.links]
    assert np.ptp(masses) < 1e-12


# ---------------------------------------------------------------------------
# the closed-form boost at high boost factors
# ---------------------------------------------------------------------------

def test_high_boost_ensemble_stays_finite_on_the_hyperboloid():
    # at lambda0_sq = 0.02 the rapidity walk reaches u0 ~ 1e16; chains used
    # to go NaN here once a Gram-Schmidt rest-frame dyad cancelled
    params = ChainParams(geometry=Geometry.discrete(0.02), link_sigma_m=0.5,
                         steps=1000, ensemble=1000, seed=1)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    assert np.isfinite(points).all()
    for row in (stats.mean_t, stats.var_transverse, stats.mean_angle):
        assert np.isfinite(row).all()
    assert stats.link_length_drift.max() <= 1e-12
    assert 1e8 < stats.max_gamma.max() < 1e154


def test_readme_ensemble_angles_match_the_deflection_law():
    params = ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=0.5,
                         steps=1000, ensemble=1000, seed=42)
    stats = wf.simulate_ensemble(params)
    assert stats.max_gamma.max() > 1e6
    assert np.abs(stats.mean_angle - params.deflection).max() <= 1e-9
    assert stats.link_length_drift.max() <= 1e-12


def test_max_gamma_is_the_largest_link_time_component():
    params = ChainParams(geometry=Geometry.discrete(0.01), link_sigma_m=0.5,
                         steps=300, ensemble=16, seed=3)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    u0 = np.diff(points[:, :, 0], axis=1)  # link length 1
    np.testing.assert_allclose(stats.max_gamma, u0.max(axis=1), rtol=1e-12)
    assert stats.max_gamma.shape == (16,) and (stats.max_gamma >= 1.0).all()


def test_overflowing_ensemble_raises():
    # dphi ~ 5.3 per link: |v| passes 1e154 within a few hundred steps
    params = ChainParams(geometry=Geometry.discrete(50.0), link_sigma_m=0.5,
                         steps=400, ensemble=4, seed=0)
    with pytest.raises(wf.InvalidStateError, match="overflowed at step 82 "):
        wf.simulate_ensemble(params)


def test_angle_has_no_cancellation_at_high_boost():
    from worldfunc.chains import _angle, _gamma, _tilt
    mpmath.mp.dps = 60
    rng = np.random.default_rng(8)
    for lam, scale in itertools.product((0.02, 0.005, 1e-5), (0.0, 1e-3, 1.0, 1e2, 1e4, 1e6, 1e8)):
        dphi = wf.deflection_angle(lam, 0.5)
        v = rng.normal(size=(3, 50)) * scale
        vv, u0 = _gamma(v)
        azimuth = rng.uniform(0, 2 * math.pi, 50)
        nxt = _tilt(v, u0, math.cosh(dphi), math.sinh(dphi), np.cos(azimuth), np.sin(azimuth))
        got = _angle(np.stack((v, nxt)), np.stack((vv, _gamma(nxt)[0])))[0]
        for i in range(50):
            a = [mpmath.mpf(float(x)) for x in v[:, i]]
            b = [mpmath.mpf(float(x)) for x in nxt[:, i]]
            a0 = mpmath.sqrt(1 + sum(x * x for x in a))
            b0 = mpmath.sqrt(1 + sum(x * x for x in b))
            want = mpmath.acosh(a0 * b0 - sum(x * y for x, y in zip(a, b)))
            assert abs(got[i] - float(want)) <= 1e-15 * (1.0 + float(a0))
            assert abs(float(want) - dphi) <= 1e-15 * (1.0 + float(a0))


@settings(max_examples=300, deadline=None)
@given(half=st.floats(0.0, math.pi, exclude_max=True))
def test_direction_is_within_two_ulps_of_cos_and_sin(half):
    # the half-angle tangent form against cos and sin of the azimuth 2 half
    from worldfunc.chains import _direction
    mpmath.mp.dps = 40
    cos_a, sin_a = _direction(np.array([half]))[:, 0]
    azimuth = 2 * mpmath.mpf(half)
    assert abs(cos_a - float(mpmath.cos(azimuth))) <= 2.0 ** -51
    assert abs(sin_a - float(mpmath.sin(azimuth))) <= 2.0 ** -51
    assert abs(cos_a * cos_a + sin_a * sin_a - 1.0) <= 1e-15


def test_direction_exact_cases():
    from worldfunc.chains import _direction
    below_pi = np.nextafter(math.pi, 0.0)
    (c0, c1, c2), (s0, s1, s2) = _direction(np.array([0.0, math.pi / 2, below_pi]))
    assert (c0, s0) == (1.0, 0.0) and math.copysign(1.0, s0) == 1.0
    # t = tan(float(pi/2)) ~ 1.6e16: t^2 stays finite and the direction is (-1, ~0)
    assert c1 == -1.0 and 0.0 < s1 <= 2.0 ** -51
    # the azimuth just below 2 pi: cos rounds to 1, sin is tiny and negative
    assert c2 == 1.0 and s2 == pytest.approx(float(mpmath.sin(2 * mpmath.mpf(below_pi))),
                                             rel=1e-15)
    # an out buffer is filled and returned
    out = np.empty((2, 3))
    assert _direction(np.array([0.0, math.pi / 2, below_pi]), out=out) is out
    assert np.array_equal(out, [[c0, c1, c2], [s0, s1, s2]])


@pytest.mark.parametrize("rows,chains", [(8, 1000), (3, 17), (1, 1)])
def test_direction_of_a_strided_block_equals_its_rows_bitwise(rows, chains):
    # simulate_ensemble takes strided (B, E) column blocks of its chain-major
    # table, the reference loop contiguous rows and step_chain one value:
    # SIMD and scalar-tail paths must not round differently
    from worldfunc.chains import _direction
    halves = math.pi * np.random.default_rng(rows).random((chains, 50))
    block = halves.T[5:5 + rows]
    assert not block.flags.c_contiguous or rows == 1
    got = _direction(block, out=np.empty((2, rows, chains)))
    for k in range(rows):
        _assert_same_bits(got[:, k], _direction(np.ascontiguousarray(block[k])))
        for i in range(chains):
            _assert_same_bits(got[:, k, i:i + 1], _direction(block[k, i:i + 1]))


@pytest.mark.parametrize("lam,scale", [(0.005, 1.0), (0.02, 1e6), (1e-5, 0.0)])
def test_angle_of_a_row_run_equals_its_row_pairs_bitwise(lam, scale):
    # each row's speed, rapidity and direction are shared by the two angles it
    # borders; one (k + 1)-row call gives the k two-row calls' angles bit for bit
    from worldfunc.chains import _angle, _gamma, _tilt
    rng = np.random.default_rng(5)
    dphi = wf.deflection_angle(lam, 0.5)
    k, m = 9, 37
    v = np.empty((k + 1, 3, m))
    v[0] = rng.normal(size=(3, m)) * scale
    for s in range(k):
        azimuth = rng.uniform(0, 2 * math.pi, m)
        _tilt(v[s], _gamma(v[s])[1], math.cosh(dphi), math.sinh(dphi), np.cos(azimuth),
              np.sin(azimuth), out=v[s + 1])
    vv = _gamma(v)[0]
    got = _angle(v, vv)
    assert got.shape == (k, m)
    for s in range(k):
        assert np.array_equal(got[s], _angle(v[s:s + 2], vv[s:s + 2])[0])


def test_past_directed_step_stays_past_directed():
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=1)
    rng = wf.chain_rng(4, 0)
    state = (np.zeros(4), np.array([-2.0, 0.3, -1.5, 0.2]))
    prev = state[1] - state[0]
    two_sm = mdot(prev, prev)
    want = wf.deflection_angle(0.005, 0.5 * two_sm)
    for _ in range(200):
        state = wf.step_chain(state, params, rng)
        cur = state[1] - state[0]
        assert cur[0] < 0
        assert abs(mdot(cur, cur) - two_sm) <= 1e-12 * abs(cur[0]) ** 2
        cosh_phi = mdot(prev, cur) / two_sm
        assert abs(math.acosh(max(1.0, cosh_phi)) - want) < 1e-9
        prev = cur


def test_step_chain_mirrors_past_directed_links():
    # time reversal of the state mirrors the step: the same azimuth tilts
    # -u to exactly the negated future-directed result
    g = Geometry.discrete(0.01)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=1)
    disp = np.array([1.5, 0.4, -0.7, 0.1])
    p1, fut = wf.step_chain((np.zeros(4), disp), params, wf.chain_rng(2, 0))
    q1, past = wf.step_chain((np.zeros(4), -disp), params, wf.chain_rng(2, 0))
    assert np.array_equal(past - q1, -(fut - p1))


def test_ensemble_links_verify_as_equivalent_in_the_deformed_geometry():
    # small boosts: every adjacent link pair keeps its Minkowski length and
    # the shared chain point gives the parallel residual -lambda0_sq exactly
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=60, ensemble=12, seed=5)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    assert stats.max_gamma.max() < 10.0
    for chain_points in points:
        chain = WorldChain(tuple(Skeleton((p, q)) for p, q in zip(chain_points, chain_points[1:])))
        for r in wf.verify_link_equivalence(g, chain):
            pair = r.pair_reports[(0, 1)]
            assert abs(pair.residual_length) <= 1e-12
            assert pair.residual_parallel == pytest.approx(-0.005, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["minkowski", "discrete", "grainy", "deformed"]),
       # sigma0 keeps lam / sigma0 finite, as DeformationFunction requires
       lam=st.floats(1e-12, 1e3), sigma0=st.just(0.0) | st.floats(1e-300, 1e3),
       link_sigma_m=st.floats(1e-12, 1e12), steps=st.integers(1, 10**6),
       ensemble=st.integers(1, 10**6), seed=st.integers(0, 2**63))
def test_chain_params_serialization_round_trips(kind, lam, sigma0, link_sigma_m, steps,
                                                ensemble, seed):
    g = {"minkowski": MINK, "discrete": Geometry.discrete(lam),
         "grainy": Geometry.grainy(lam, sigma0),
         "deformed": Geometry.deformed(wf.DeformationFunction.from_table(
             [[-1.0, -1.0 - lam], [0.0, 0.0], [1.0, 1.0 + lam]]))}[kind]
    params = ChainParams(geometry=g, link_sigma_m=link_sigma_m, steps=steps,
                         ensemble=ensemble, seed=seed)
    d = params.to_dict()
    back = ChainParams.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    assert back.deformation_strength == params.deformation_strength


# ---------------------------------------------------------------------------
# the blocked ensemble loop against the per-step loop
# ---------------------------------------------------------------------------

def _reference_ensemble(params, keep_chains=False):
    # the per-step loop that the blocked simulate_ensemble replaced, kept as
    # reference: an (S, E) half-azimuth table, every statistic reduced per step
    from worldfunc.chains import ChainStats, _angle, _direction, _gamma, _tilt
    E, S = params.ensemble, params.steps
    length = math.sqrt(2.0 * params.link_sigma_m)
    cosh_dphi, sinh_dphi = math.cosh(params.deflection), math.sinh(params.deflection)
    halves = np.empty((S, E))  # half-azimuths, as step_chain draws them
    for i in range(E):
        halves[:, i] = math.pi * wf.chain_rng(params.seed, i).random(S)
    v = np.zeros((3, E))
    vv, u0 = _gamma(v)
    mean_t, var_transverse, mean_angle = np.empty((3, S))
    drift = np.zeros(E)
    max_gamma = np.ones(E)
    points = None
    if keep_chains:
        points = np.zeros((E, S + 2, 4))
        points[:, 1, 0] = length
    for s in range(S):
        v_next = _tilt(v, u0, cosh_dphi, sinh_dphi, *_direction(halves[s]))
        with np.errstate(over="ignore", invalid="ignore"):
            vv_next, u0 = _gamma(v_next)
        mean_t[s] = length * u0.mean()
        if not math.isfinite(mean_t[s]):
            raise wf.InvalidStateError(f"chain state overflowed at step {s + 1} (u0 beyond 1e154)")
        mean_angle[s] = _angle(np.stack((v, v_next)), np.stack((vv, vv_next)))[0].mean()
        v, vv = v_next, vv_next
        var_transverse[s] = length * length * v.var(axis=1).sum()
        np.maximum(drift, np.abs(u0 * u0 - vv - 1.0) / (u0 * u0), out=drift)
        np.maximum(max_gamma, u0, out=max_gamma)
        if keep_chains:
            np.add(points[:, s + 1], length * np.vstack((u0, v)).T, out=points[:, s + 2])
    stats = ChainStats(np.arange(1, S + 1), mean_t, var_transverse, mean_angle, drift, max_gamma)
    return (stats, points) if keep_chains else stats


_STATS_FIELDS = ("step", "mean_t", "var_transverse", "mean_angle", "link_length_drift",
                 "max_gamma")


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ensemble,budget", [(4, 4 * 5), (1000, None), (3, 3 * 7)])
def test_overflow_mid_block_names_the_first_non_finite_step(monkeypatch, ensemble, budget):
    # the overflow falls inside a block of several steps: the steps after it
    # in that block run on inf/NaN states, and the error still names the step
    # of the per-step loop
    from worldfunc import chains
    if budget is not None:
        monkeypatch.setattr(chains, "_BLOCK_CHAIN_STEPS", budget)
    params = ChainParams(geometry=Geometry.discrete(50.0), link_sigma_m=0.5,
                         steps=400, ensemble=ensemble, seed=0)
    with pytest.raises(wf.InvalidStateError) as want:
        _reference_ensemble(params)
    step = int(str(want.value).split("step ")[1].split()[0])
    block = max(1, chains._BLOCK_CHAIN_STEPS // ensemble)
    assert block > 1 and (step - 1) % block != 0  # not the first step of its block
    with pytest.raises(wf.InvalidStateError) as got:
        wf.simulate_ensemble(params)
    assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(ensemble=st.integers(1, 70), steps=st.integers(1, 300),
       lam=st.sampled_from([0.0, 1e-5, 0.005, 0.02, 0.3, 50.0]), seed=st.integers(0, 2**32),
       keep_chains=st.booleans(),
       budget=st.sampled_from([None, 1, 64, 500]) | st.integers(1, 4000))
def test_blocked_ensemble_is_bit_identical_to_the_per_step_loop(ensemble, steps, lam, seed,
                                                               keep_chains, budget):
    # budget None keeps the module's block size (B >= 117 at 70 chains); the
    # others make blocks of one step up to whole runs, with a short last block.
    # At lambda0_sq = 50 the state overflows within ~100 steps: both raise alike
    from unittest import mock
    from worldfunc import chains
    params = ChainParams(geometry=Geometry.discrete(lam) if lam else MINK, link_sigma_m=0.5,
                         steps=steps, ensemble=ensemble, seed=seed)
    with mock.patch.object(chains, "_BLOCK_CHAIN_STEPS", budget or chains._BLOCK_CHAIN_STEPS):
        try:
            want = _reference_ensemble(params, keep_chains)
        except wf.InvalidStateError as exc:
            with pytest.raises(wf.InvalidStateError) as raised:
                wf.simulate_ensemble(params, keep_chains)
            assert str(raised.value) == str(exc)
            return
        got = wf.simulate_ensemble(params, keep_chains)
    if keep_chains:
        (got, got_points), (want, want_points) = got, want
        _assert_same_bits(got_points, want_points)
    for name in _STATS_FIELDS:
        _assert_same_bits(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("lam,ensemble,steps", [(0.005, 1000, 40), (0.02, 64, 1000),
                                                (0.01, 1, 30), (0.01, 3000, 11)])
def test_blocked_ensemble_matches_the_per_step_loop_at_module_block_size(lam, ensemble, steps):
    # B = 8, 128, 8192 (one block) and 2 steps per block
    params = ChainParams(geometry=Geometry.discrete(lam), link_sigma_m=0.5, steps=steps,
                         ensemble=ensemble, seed=42)
    (got, got_points) = wf.simulate_ensemble(params, keep_chains=True)
    (want, want_points) = _reference_ensemble(params, keep_chains=True)
    _assert_same_bits(got_points, want_points)
    for name in _STATS_FIELDS:
        _assert_same_bits(getattr(got, name), getattr(want, name))


def test_ensemble_statistics_do_not_depend_on_chain_order(monkeypatch):
    # permuting the per-chain streams permutes the per-chain outputs exactly;
    # the ensemble means and variances only reassociate their sums
    from worldfunc import chains
    params = ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=0.5, steps=200,
                         ensemble=300, seed=7)
    stats, points = wf.simulate_ensemble(params, keep_chains=True)
    perm = np.random.default_rng(3).permutation(params.ensemble)
    chain_rng = chains.chain_rng
    monkeypatch.setattr(chains, "chain_rng", lambda seed, i: chain_rng(seed, int(perm[i])))
    shuffled, shuffled_points = wf.simulate_ensemble(params, keep_chains=True)
    assert not np.array_equal(perm, np.arange(params.ensemble))
    _assert_same_bits(shuffled_points, points[perm])
    _assert_same_bits(shuffled.link_length_drift, stats.link_length_drift[perm])
    _assert_same_bits(shuffled.max_gamma, stats.max_gamma[perm])
    for name in ("mean_t", "var_transverse", "mean_angle"):
        np.testing.assert_allclose(getattr(shuffled, name), getattr(stats, name),
                                   rtol=1e-12, atol=0)
