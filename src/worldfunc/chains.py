"""World-chain dynamics of free pointlike particles.

A free particle is a chain of connected two-point skeletons (links).  In a
deformed Minkowski geometry adjacent links must be equivalent in the
deformed sense; described in Minkowski terms this forces every link to keep
its Minkowski length and to tilt by a fixed hyperbolic angle

    delta_phi = 2 asinh( sqrt( d / (2 sigma_M) ) )

where d is the deformation strength at the link.  The tilt axis is left
open by the dynamics, so the chain wobbles: here the tilt direction is
drawn by a uniform azimuth a in the (x, y) plane of the previous link's rest
frame, isolated behind the rng stream so alternative cone distributions can
be injected.  The stream gives the half-angle a/2 = pi u, and the direction
(cos a, sin a) comes from its tangent (``_direction``).  A step carries the
spatial velocity v alone; u0 = sqrt(1 + |v|^2) is derived, so every
direction lies on the unit hyperboloid.

Ensembles use counter-based per-chain rng streams derived from
(seed, chain index), so results are reproducible bit for bit under any
execution order.  Their transverse spread is diffusive, growing linearly
with the step, only while k sinh^2(delta_phi) << 1; beyond it grows
exponentially (see ``ChainStats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidStateError, WorldFunctionError
from .geometry import (Geometry, UnitConstants, _Config, _finite, _mdot, _sigma_m,
                       as_point, deformation_value)
from .equivalence import _skeleton_pair_reports
from .objects import Skeleton


# ---------------------------------------------------------------------------
# chain containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WorldChain:
    """Ordered connected links; link s ends where link s+1 begins."""

    links: tuple

    def __post_init__(self):
        links = tuple(self.links)
        if not links:
            raise InvalidInputError("a world chain needs at least one link")
        size = len(links[0])
        for s, link in enumerate(links):
            if not isinstance(link, Skeleton):
                raise InvalidInputError("chain links must be skeletons")
            if len(link) != size:
                raise InvalidInputError("all links must have the same skeleton size")
            if s > 0 and not np.array_equal(links[s - 1][1], link[0]):
                raise InvalidInputError(f"chain broken between links {s - 1} and {s}")
        object.__setattr__(self, "links", links)

    def __len__(self):
        return len(self.links)

    def __getitem__(self, s):
        return self.links[s]


@dataclass(frozen=True)
class ChainParams(_Config):
    """Ensemble description: geometry, Minkowski sigma per link, sizes, seed."""

    geometry: Geometry
    link_sigma_m: float
    steps: int
    ensemble: int = 1
    seed: int = 0

    _MINIMUMS = {"steps": 1, "ensemble": 1, "seed": 0}

    def __post_init__(self):
        super().__post_init__()
        if not self.geometry.has_minkowski_substrate:
            raise InvalidInputError("chain dynamics needs a Minkowski-substrate geometry")
        if not self.link_sigma_m > 0:
            raise InvalidInputError("link_sigma_m must be positive (timelike links)")
        try:  # cosh >= sinh, so a finite cosh keeps the tilt's sinh finite too
            finite = (math.isfinite(math.sqrt(2.0 * self.link_sigma_m))
                      and math.isfinite(math.cosh(self.deflection)))
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidInputError(f"link_sigma_m = {self.link_sigma_m!r} gives a link length "
                                    "or tilt that is not finite")

    @property
    def deformation_strength(self) -> float:
        return float(deformation_value(self.geometry, self.link_sigma_m))

    @property
    def deflection(self) -> float:
        return deflection_angle(self.deformation_strength, self.link_sigma_m)


@dataclass(frozen=True, eq=False)
class ChainStats:
    """Per-step ensemble statistics; row s describes the s-th generated link.

    mean_t[s]          mean longitudinal (time) advance of link s
    var_transverse[s]  ensemble variance of the transverse displacement
                       increment of link s, summed over the 3 spatial axes
    mean_angle[s]      mean measured hyperbolic angle between links s-1 and s
    link_length_drift  per chain, max of |u0^2 - |v|^2 - 1| / u0^2 along the
                       chain: the rounding of the derived u0, not a drift
    max_gamma          per chain, the largest u0 (boost factor) along the chain

    For link k = s + 1 of an ensemble of E chains, E mean_t[s] = length
    cosh^k(dphi) exactly, and E var_transverse[s] = length^2 (2/3)
    ((1 + 1.5 sinh^2 dphi)^k - 1) (E - 1)/E: near-linear in k only while
    k sinh^2(dphi) << 1, exponential beyond, and heavy-tailed at late steps.

    mean_angle is measured from the stored velocities by the hyperbolic law of
    haversines, which cancels nothing; their absolute rounding is about
    u0 * 2^-52, and once that approaches sinh(dphi) (u0 ~ 1e8 at dphi ~ 0.3)
    a chain's tilt is no longer resolved and its angle is off.
    """

    step: np.ndarray
    mean_t: np.ndarray
    var_transverse: np.ndarray
    mean_angle: np.ndarray
    link_length_drift: np.ndarray
    max_gamma: np.ndarray


# ---------------------------------------------------------------------------
# scalar laws
# ---------------------------------------------------------------------------

def deflection_angle(d: float, sigma_m_link: float) -> float:
    """Hyperbolic tilt per link: 2 asinh(sqrt(d / (2 sigma_M))), d >= 0."""
    if not _finite("sigma_m_link", sigma_m_link) > 0:
        raise InvalidInputError("sigma_m_link must be positive")
    return 2.0 * math.asinh(math.sqrt(_finite("d", d, 0.0) / (2.0 * sigma_m_link)))


def particle_mass(units: UnitConstants, two_sigma_link: float) -> float:
    """Geometric mass m = b * mu with mu = sqrt(2 sigma) the invariant link length."""
    if not _finite("two_sigma_link", two_sigma_link) > 0:
        raise InvalidInputError("two_sigma_link must be positive")
    return units.b * math.sqrt(two_sigma_link)


def w_correction(dfun, pk_s, pl_s, pk_s1, pl_s1) -> float:
    """Cross-pair deformation correction of the link-equivalence equations:

        w = d(Pk_s, Pl_s1) + d(Pl_s, Pk_s1) - d(Pk_s, Pk_s1) - d(Pl_s, Pl_s1)

    with d(P, Q) = dfun(sigma_M(P, Q)).  Cancels pairwise when all four
    arguments see the same deformation value.
    """
    pk_s, pl_s, pk_s1, pl_s1 = [as_point(p, dim=4) for p in (pk_s, pl_s, pk_s1, pl_s1)]

    def d(p, q):
        return float(dfun(_sigma_m(p - q)))

    return d(pk_s, pl_s1) + d(pl_s, pk_s1) - d(pk_s, pk_s1) - d(pl_s, pl_s1)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _gamma(v, vv=None, u0=None):
    """|v|^2 and u0 = sqrt(1 + |v|^2) of (..., 3, m) spatial velocity rows,
    written into vv and u0 when they are given."""
    vv = np.einsum("...im,...im->...m", v, v, out=vv)
    return vv, np.sqrt(1.0 + vv, out=u0)


def _tilt(v, u0, cosh_dphi, sinh_dphi, cos_a, sin_a, out=None, push=None, tmp=None):
    """Tilt the (3, m) spatial velocities v (u0 = sqrt(1 + |v|^2)) by dphi
    towards n = (cos a, sin a, 0) of their rest frames, given the (m,) rows
    cos a and sin a of the azimuths; the result is written into out if given.
    push holds the rows sinh dphi (cos a, sin a) where they are precomputed,
    and tmp two (m,) rows of scratch space.

    The pure boost of velocity v (Jackson, Classical Electrodynamics, 11.3)
    gives v' = (cosh dphi + sinh dphi (v.n) / (1 + u0)) v + sinh dphi n in
    closed form: the coefficient of v lies in [e^-dphi, e^dphi], so nothing
    cancels and no intermediate value exceeds O(u0).
    """
    if push is None:
        push = (sinh_dphi * cos_a, sinh_dphi * sin_a)
    coef, den = (np.empty_like(u0), np.empty_like(u0)) if tmp is None else tmp
    np.multiply(v[0], cos_a, out=coef)
    np.multiply(v[1], sin_a, out=den)
    coef += den
    coef *= sinh_dphi
    np.add(1.0, u0, out=den)
    coef /= den
    coef += cosh_dphi
    nxt = np.multiply(coef, v, out=out)
    nxt[:2] += push
    return nxt


def _direction(half, out=None):
    """(cos a, sin a) rows of the azimuths a = 2 half, written into the
    (2, ...) buffer out if given, by the half-angle tangent t = tan(half):

        cos a = (1 - t^2) / (1 + t^2),    sin a = 2t / (1 + t^2).

    One tan costs less than a cos and a sin.  For half in [0, pi) t is finite
    (|t| < 1.7e16, so t^2 cannot overflow) and both rows lie within 2^-51 of
    cos a and sin a.  A strided block must give the bits of its rows taken
    one at a time, or the ensemble and step_chain would disagree; the tests
    check it, since numpy's SIMD and scalar-tail paths could round apart.
    """
    if out is None:
        out = np.empty((2,) + np.shape(half))
    cos, sin = out
    np.tan(half, out=sin)
    np.multiply(sin, sin, out=cos)
    den = 1.0 + cos
    np.subtract(1.0, cos, out=cos)
    cos /= den
    sin *= 2.0
    sin /= den
    return out


def _angle(v, vv):
    """Hyperbolic angles between consecutive rows of (k + 1, 3, m) spatial
    velocities v with |v|^2 rows vv: row s of the (k, m) result is the angle
    between the unit directions of rows s and s + 1.

    By the hyperbolic law of haversines (Ratcliffe, Foundations of Hyperbolic
    Manifolds, 3.5), with rapidity eta = asinh|v| and sinh eta = |v|,

        sinh^2(phi/2) = sinh^2((eta' - eta)/2) + 1/4 |v||v'| |w' - w|^2,

    where w = v/|v| (0 at v = 0) and |w' - w| = 2 sin(Delta/2) is the chord
    between the two directions.  Both terms are non-negative, so nothing
    cancels, and each row's speed, rapidity and direction are computed once
    for the two angles it borders.  The stored velocities round by about
    u0 * 2^-52, which bounds the accuracy of the result, not this formula.
    """
    speed = np.sqrt(vv)
    eta = np.arcsinh(speed)
    unit = v / np.where(speed > 0.0, speed, 1.0)[:, None]
    chord = unit[1:] - unit[:-1]
    half = np.sinh(0.5 * (eta[1:] - eta[:-1]))
    across = 0.25 * speed[:-1] * speed[1:] * np.einsum("kim,kim->km", chord, chord)
    return 2.0 * np.arcsinh(np.sqrt(half * half + across))


def step_chain(state, params: ChainParams, rng) -> tuple[np.ndarray, np.ndarray]:
    """Advance one link: the next link starts at the previous end, keeps the
    Minkowski length, and tilts by the deflection angle about a uniformly
    drawn azimuth a: the stream gives a/2 = pi random(), and the tilt
    direction comes from its tangent.  A past-directed link stays
    past-directed."""
    p0 = as_point(state[0], dim=4)
    p1 = as_point(state[1], dim=4)
    disp = p1 - p0
    two_sm = float(_mdot(disp, disp))
    if not two_sm > 0:
        raise InvalidStateError("chain state must have a timelike leading vector")
    length = math.sqrt(two_sm)
    scale = math.copysign(length, disp[0])  # disp / scale is future-directed
    v = disp[1:, None] / scale
    sigma_m = 0.5 * two_sm
    d = float(deformation_value(params.geometry, sigma_m))
    dphi = deflection_angle(d, sigma_m)
    cos_a, sin_a = _direction(np.array([math.pi * rng.random()]))
    v_next = _tilt(v, _gamma(v)[1], math.cosh(dphi), math.sinh(dphi), cos_a, sin_a)
    return p1, p1 + scale * np.concatenate([_gamma(v_next)[1], v_next[:, 0]])


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Counter-based per-chain stream derived from (seed, chain index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))))


def generate_chain(params: ChainParams, chain_index: int = 0) -> WorldChain:
    """Reference single-chain generator built on ``step_chain``.

    Starts from the common initial link along the time axis at the origin.
    """
    length = math.sqrt(2.0 * params.link_sigma_m)
    p0 = np.zeros(4)
    p1 = np.array([length, 0.0, 0.0, 0.0])
    rng = chain_rng(params.seed, chain_index)
    links = [Skeleton((p0, p1))]
    state = (p0, p1)
    for _ in range(params.steps):
        state = step_chain(state, params, rng)
        links.append(Skeleton(state))
    return WorldChain(tuple(links))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkStepReport:
    step: int
    pair_reports: dict
    max_abs_residual: float
    ok: bool


def verify_link_equivalence(g: Geometry, chain: WorldChain, tol: float = 1e-9) -> list[LinkStepReport]:
    """Check adjacent-link equivalence of a chain in the full deformed geometry.

    For every adjacent link pair and every skeleton pair (k, l) the parallel
    and length residuals of the equivalence relation are evaluated with
    sigma = sigma_M + d, all in one batched call whose reports equal per-pair
    ``is_equivalent`` calls bit for bit.  Accepts arbitrary skeleton sizes, so
    externally produced composite-particle chains can be validated too.
    """
    _finite("tol", tol, 0.0)
    if not g.has_minkowski_substrate:
        raise WorldFunctionError("link verification needs a Minkowski-substrate geometry")
    pts = np.array([link.points for link in chain.links])  # (links, size, dim)
    (eq, r_par, r_len, _), reports = _skeleton_pair_reports(g, pts[:-1], pts[1:], tol)
    # fmax: a NaN residual never becomes the worst one, nor does it hide a finite one
    worst = np.fmax.reduce(np.fmax(np.abs(r_par), np.abs(r_len)), axis=-1, initial=0.0)
    return [LinkStepReport(s, rep, float(w), bool(ok))
            for s, (rep, w, ok) in enumerate(zip(reports, worst, eq.all(axis=-1)))]


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

_BLOCK_CHAIN_STEPS = 8192  # chain steps per block of simulate_ensemble


def simulate_ensemble(params: ChainParams, keep_chains: bool = False):
    """Run the ensemble and aggregate per-step statistics.

    All chains start from the same initial link along the time axis.  The
    walk is vectorized across the ensemble but consumes exactly the same
    per-chain azimuth streams as repeated ``step_chain`` calls, and the
    reductions run in fixed chain order, so the statistics are bit-identical
    for a given (params, seed) under any schedule.

    The steps run in blocks of B = max(1, _BLOCK_CHAIN_STEPS // ensemble).
    Row i of the chain-major (ensemble, steps) half-azimuth table is chain
    i's stream, drawn in place and scaled by pi once; each block takes the
    directions (cos a, sin a) of its B columns by the half-angle tangent
    (``_direction``), and their sinh dphi multiples, at once.  Within a
    block a step only tilts and re-derives u0: the velocities go into
    component-major (B + 1, 3, ensemble) rows, |v|^2 and u0 into
    (B + 1, ensemble) rows, row 0 holding the block's incoming link.  The
    statistics, drift, max_gamma and kept points are then reduced over the
    whole block, each row in the same order as one step at a time (the points
    by adding each row of a step-major (B + 1, 4, ensemble) stage to the
    next, from the block's first point, copied into the points once per
    block), so they and reruns are bit-identical to a step-by-step loop.  A
    state that is no longer finite (|v|^2 overflows near |v| = 1e154) raises
    InvalidStateError naming the first such step.

    Returns ChainStats, or (ChainStats, points) with chain points of shape
    (ensemble, steps + 2, 4) when keep_chains is set: points[i, k] is the
    k-th point of chain i, starting at the origin.
    """
    E, S = params.ensemble, params.steps
    B = max(1, _BLOCK_CHAIN_STEPS // E)
    length = math.sqrt(2.0 * params.link_sigma_m)
    cosh_dphi, sinh_dphi = math.cosh(params.deflection), math.sinh(params.deflection)

    halves = np.empty((E, S))
    for i in range(E):  # the half-azimuths pi random(), as step_chain draws them
        chain_rng(params.seed, i).random(out=halves[i])
    halves *= math.pi

    # row 0: the initial link along the time axis, shared by all chains
    v, vv, u0 = np.zeros((B + 1, 3, E)), np.zeros((B + 1, E)), np.ones((B + 1, E))
    trig, push, tmp = np.empty((2, B, E)), np.empty((2, B, E)), np.empty((2, E))
    mean_t, var_transverse, mean_angle = np.empty((3, S))
    drift = np.zeros(E)
    max_gamma = np.ones(E)
    points = None
    if keep_chains:
        points = np.zeros((E, S + 2, 4))
        points[:, 1, 0] = length
        stage = np.zeros((B + 1, 4, E))  # row 0: the block's first point
        stage[0, 0] = length

    for s0 in range(0, S, B):
        b = min(B, S - s0)
        _direction(halves.T[s0:s0 + b], out=trig[:, :b])
        np.multiply(sinh_dphi, trig[:, :b], out=push[:, :b])
        with np.errstate(over="ignore", invalid="ignore"):  # raised after the block
            for k in range(b):
                _tilt(v[k], u0[k], cosh_dphi, sinh_dphi, trig[0, k], trig[1, k], v[k + 1],
                      push[:, k], tmp)
                _gamma(v[k + 1], vv[k + 1], u0[k + 1])
        block = slice(s0, s0 + b)
        v_new, vv_new, u0_new = v[1:b + 1], vv[1:b + 1], u0[1:b + 1]
        mean_t[block] = length * u0_new.mean(axis=1)
        finite = np.isfinite(mean_t[block])
        if not finite.all():
            raise InvalidStateError(f"chain state overflowed at step {s0 + finite.argmin() + 1} "
                                    "(u0 beyond 1e154)")
        mean_angle[block] = _angle(v[:b + 1], vv[:b + 1]).mean(axis=1)
        var_transverse[block] = length * length * v_new.var(axis=2).sum(axis=1)
        u0_sq = u0_new * u0_new
        np.maximum(drift, (np.abs(u0_sq - vv_new - 1.0) / u0_sq).max(axis=0), out=drift)
        np.maximum(max_gamma, u0_new.max(axis=0), out=max_gamma)
        if keep_chains:
            np.multiply(length, u0_new, out=stage[1:b + 1, 0])
            np.multiply(length, v_new, out=stage[1:b + 1, 1:])
            for k in range(b):  # an axis-0 cumsum runs one short loop per column
                np.add(stage[k], stage[k + 1], out=stage[k + 1])
            points[:, s0 + 2:s0 + b + 2] = stage[1:b + 1].transpose(2, 0, 1)
            stage[0] = stage[b]
        v[0], vv[0], u0[0] = v[b], vv[b], u0[b]

    stats = ChainStats(np.arange(1, S + 1), mean_t, var_transverse, mean_angle, drift, max_gamma)
    return (stats, points) if keep_chains else stats
