"""World-chain dynamics: deflection law, stepping, link verification,
ensembles and their determinism."""

import math

import mpmath
import numpy as np
import pytest

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


def test_particle_mass():
    assert wf.particle_mass(UnitConstants(b=1.0), 1.0) == 1.0
    assert wf.particle_mass(UnitConstants(b=2.0), 1.0) == 2.0
    with pytest.raises(wf.InvalidInputError):
        wf.particle_mass(UnitConstants(), 0.0)


def test_particle_mass_inverse_convention():
    u = UnitConstants(hbar=0.02, c=1.0, b=1.0)
    assert wf.particle_mass_inverse_convention(u, 1.0) == math.sqrt(1.02)
    assert wf.particle_mass_inverse_convention(u, 1.0) == pytest.approx(1.009950, abs=1e-6)


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


def test_chain_params_validation():
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=Geometry.euclidean(3), link_sigma_m=0.5, steps=5)
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=MINK, link_sigma_m=-1.0, steps=5)
    with pytest.raises(wf.InvalidInputError):
        ChainParams(geometry=MINK, link_sigma_m=0.5, steps=0)


def test_chain_params_roundtrip_and_derived():
    params = ChainParams(geometry=Geometry.discrete(0.005), link_sigma_m=0.5,
                         steps=10, ensemble=2, seed=3)
    back = ChainParams.from_dict(params.to_dict())
    assert back.link_sigma_m == 0.5 and back.geometry.kind == "discrete"
    assert params.deformation_strength == 0.005
    assert params.deflection == wf.deflection_angle(0.005, 0.5)


def test_mass_constant_along_chain():
    g = Geometry.discrete(0.005)
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=30, ensemble=1, seed=6)
    chain = wf.generate_chain(params)
    units = UnitConstants()
    masses = [wf.particle_mass(units, 2.0 * wf.sigma(g, link[0], link[1]))
              for link in chain.links]
    assert np.ptp(masses) < 1e-12


# ---------------------------------------------------------------------------
# the component-major step kernel against the (ensemble, 4) loop it replaced
# ---------------------------------------------------------------------------

def _ref_mdot(x, y):
    xy = x * y
    return xy[..., 0] - np.sum(xy[..., 1:], axis=-1)


def _ref_tilt(u, cosh_dphi, sinh_dphi, azimuth):
    m = u.shape[0]
    e1 = np.zeros((m, 4))
    e1[:, 1] = 1.0
    e2 = np.zeros((m, 4))
    e2[:, 2] = 1.0
    w1 = e1 - _ref_mdot(e1, u)[:, None] * u
    w1 = w1 / np.sqrt(-_ref_mdot(w1, w1))[:, None]
    w2 = e2 - _ref_mdot(e2, u)[:, None] * u
    w2 = w2 + _ref_mdot(w2, w1)[:, None] * w1
    w2 = w2 / np.sqrt(-_ref_mdot(w2, w2))[:, None]
    e = np.cos(azimuth)[:, None] * w1 + np.sin(azimuth)[:, None] * w2
    nxt = cosh_dphi * u + sinh_dphi * e
    return nxt / np.sqrt(_ref_mdot(nxt, nxt))[:, None]


def _ref_step_chain(state, params, rng):
    p0, p1 = np.asarray(state[0], float), np.asarray(state[1], float)
    disp = p1 - p0
    two_sm = float(_ref_mdot(disp, disp))
    length = math.sqrt(two_sm)
    sigma_m = 0.5 * two_sm
    dphi = wf.deflection_angle(float(wf.deformation_value(params.geometry, sigma_m)), sigma_m)
    azimuth = np.array([rng.uniform(0.0, 2.0 * math.pi)])
    u_next = _ref_tilt((disp / length)[None, :], math.cosh(dphi), math.sinh(dphi), azimuth)[0]
    return p1, p1 + length * u_next


def _ref_ensemble(params):
    E, S = params.ensemble, params.steps
    length = math.sqrt(2.0 * params.link_sigma_m)
    dphi = wf.deflection_angle(params.deformation_strength, params.link_sigma_m)
    azimuths = np.empty((E, S))
    for i in range(E):
        azimuths[i] = wf.chain_rng(params.seed, i).uniform(0.0, 2.0 * math.pi, S)
    u = np.zeros((E, 4))
    u[:, 0] = 1.0
    mean_t, var_transverse, mean_angle = np.empty(S), np.empty(S), np.empty(S)
    drift = np.zeros(E)
    points = np.zeros((E, S + 2, 4))
    points[:, 1, 0] = length
    for s in range(S):
        u_next = _ref_tilt(u, math.cosh(dphi), math.sinh(dphi), azimuths[:, s])
        mean_angle[s] = np.arccosh(np.maximum(1.0, _ref_mdot(u, u_next))).mean()
        u = u_next
        mean_t[s] = length * u[:, 0].mean()
        var_transverse[s] = length * length * u[:, 1:].var(axis=0, ddof=0).sum()
        drift = np.maximum(drift, np.abs(_ref_mdot(u, u) - 1.0))
        points[:, s + 2] = points[:, s + 1] + length * u
    return (mean_t, var_transverse, mean_angle, drift), points


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("g,sigma_m,steps,ensemble,seed,nonfinite", [
    (Geometry.discrete(0.02), 0.5, 400, 40, 1, True),  # boosts overflow: NaN chains
    (Geometry.discrete(0.005), 0.5, 200, 64, 42, False),
    (Geometry.discrete(1e-5), 0.5, 200, 33, 2, False),
    (Geometry.discrete(0.02), 1.0, 150, 17, 9, False),
    (Geometry.grainy(0.01, 0.03), 0.5, 100, 10, 5, False),
    (MINK, 0.5, 50, 8, 0, False),
    (Geometry.discrete(0.02), 0.5, 300, 1, 2, True),
], ids=["discrete-0.02-nan", "discrete-0.005", "discrete-1e-5", "discrete-sigma-1",
        "grainy", "minkowski", "one-chain"])
def test_ensemble_bit_identical_to_row_major_loop(g, sigma_m, steps, ensemble, seed, nonfinite):
    params = ChainParams(geometry=g, link_sigma_m=sigma_m, steps=steps,
                         ensemble=ensemble, seed=seed)
    with np.errstate(all="ignore"):
        want, want_points = _ref_ensemble(params)
        stats, points = wf.simulate_ensemble(params, keep_chains=True)
        plain = wf.simulate_ensemble(params)
    assert (~np.isfinite(want_points).all(axis=(1, 2))).any() == nonfinite
    assert _same_bits(points, want_points)  # NaN positions and sign bits too
    for got in (stats, plain):
        assert _same_bits(got.mean_t, want[0])
        assert _same_bits(got.var_transverse, want[1])
        assert _same_bits(got.mean_angle, want[2])
        assert _same_bits(got.link_length_drift, want[3])


def _odd_states():
    z = -0.0
    rng = np.random.default_rng(5)
    states = []
    for _ in range(60):
        p0 = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4)
        v = rng.normal(size=3) * 10.0 ** rng.integers(-6, 3)
        t = math.sqrt(1.0 + v @ v) * rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(-3, 4)
        states.append((p0, p0 + np.concatenate([[t], v * abs(t)])))
    # signed zeros, past-directed links, extreme magnitudes and subnormals
    for p1 in ([1.0, z, z, z], [-1.0, z, z, z], [-1.0, 0.0, z, 0.0], [2.0, z, 0.5, z],
               [1e300, 1e299, z, z], [1.0, 1e-320, z, -1e-320]):
        states.append((np.zeros(4), np.array(p1)))
        states.append((np.full(4, z), np.array(p1)))
    return states


@pytest.mark.parametrize("g", [MINK, Geometry.discrete(0.005), Geometry.discrete(0.3)],
                         ids=["minkowski", "discrete-0.005", "discrete-0.3"])
def test_step_chain_bit_identical_to_row_major_step(g):
    params = ChainParams(geometry=g, link_sigma_m=0.5, steps=1)
    rng, ref_rng = wf.chain_rng(7, 0), wf.chain_rng(7, 0)
    for state in _odd_states():
        disp = state[1] - state[0]
        with np.errstate(all="ignore"):
            if not _ref_mdot(disp, disp) > 0:  # not timelike, or overflowing
                with pytest.raises(wf.InvalidStateError):
                    wf.step_chain(state, params, rng)
                continue
            got = wf.step_chain(state, params, rng)
            want = _ref_step_chain(state, params, ref_rng)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), state


def test_component_major_mdot_keeps_np_sum_order_and_signed_zeros():
    from worldfunc.chains import _mdot_cm
    rng = np.random.default_rng(0)
    for m in (1, 64, 1000):
        x = rng.normal(size=(m, 4)) * 10.0 ** rng.integers(-8, 9, size=(m, 4))
        y = rng.normal(size=(m, 4)) * 10.0 ** rng.integers(-8, 9, size=(m, 4))
        assert _same_bits(_mdot_cm(x.T.copy(), y.T.copy()), _ref_mdot(x, y))
    # every combination of special values: np.sum starts from +0.0, so a
    # sum of three -0.0 terms is +0.0 and -0.0 - (+0.0) stays -0.0
    vals = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 1e-310]
    grid = np.array(np.meshgrid(vals, vals, vals, vals)).reshape(4, -1)
    with np.errstate(all="ignore"):
        assert _same_bits(_mdot_cm(grid, np.ones_like(grid)), _ref_mdot(grid.T, 1.0))
