"""Vector equivalence in a world-function geometry.

Two vectors are equivalent when they are parallel and of equal length, both
conditions expressed through sigma alone:

    (a.b) = |a| |b|      and      |a|^2 = |b|^2

Since |a| |b| is imaginary for spacelike vectors, the parallelism condition
is evaluated in the algebraically equivalent form (a.b) = (|a|^2 + |b|^2)/2,
which coincides with (a.b) = |a|^2 exactly where the joint test applies and
keeps the report symmetric in (a, b).

Outside the Euclidean geometry the relation is generally intransitive:
solving the two equations for the end point Q1 of a vector at Q0 equivalent
to a given one may yield no solution, exactly one, or a whole manifold.
In the Euclidean geometry the solution is exactly the translation Q0 + (P1 -
P0), and ``solve_equivalent`` returns it in closed form.  On the Minkowski
substrate F is piecewise linear, so in each slope cell of F the equations are
a quadric cut by a hyperplane: for a generic input the solve takes one exact
root per non-empty cell (``_cell_starts``), classified by the walk as a
tangent point or on an (n - 2)-dimensional surface; otherwise a multistart
damped Newton iteration explores the structure, and a second-order test
classifies its deduplicated, polished representatives;
``find_intransitivity_witness`` builds broken-transitivity
witnesses from one exact null-shift template, confirmed by the batched residual
kernel that also checks skeleton and chain-link equivalence; the segment/tube
operations expose the thickness that straight lines acquire under deformation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    FamilyUndefinedError,
    InvalidDirectionError,
    InvalidInputError,
    SolverFailureError,
)
from .geometry import (
    Geometry,
    GeomVector,
    _ETA,
    _Config,
    _cells,
    _finite,
    _integral,
    _scalar_product_arrays,
    _sigma_m,
    as_point,
    scalar_product,
    sigma,
    sigma_gradient,
    squared_length,
    triangle_defect,
)

_RANK_CUTOFF = 1e-8
# closed-form 2x2 normal equations are used while det(J J^T) > this times
# (trace J J^T)^2, i.e. for condition numbers of J up to about 1e5; the
# rounding of det then costs at most ~1e-6 relative in the pseudo-inverse
_GRAM_CUTOFF = 1e-10
# candidate triples per block of the witness search: its memory is independent of the budget
_WITNESS_BLOCK = 1024
# Newton line-search step lengths, all tried in one residual call.  Near the
# light cone a start can crawl for dozens of iterations at steps of
# 1/128-1/32, each gaining under 1 %; such a start stalls at 1/16.  A floor
# of 1/8 or 1/4 would lose 11 or 14 % of the converged near-cone starts
# where 1/16 loses 6 %.  A row approaching a double root (its last accepted
# step cut the residual norm by a ratio within _DOUBLE_BAND of 1/4) tries the
# ladder scaled by 2, i.e. 2 ... 1/8, in the same call.
_LADDER = 0.5 ** np.arange(5)
_DOUBLE_BAND = 0.05
# the generic branch of solve_equivalent (_cell_starts) needs q0 farther than
# sqrt(this) times the largest point from the line p0p1, and W = span(w0, u)
# and each slope cell's normal n that far from null (Euclidean norms): the
# cell points then carry ~1e-10 relative rounding, well inside tol
_GENERIC_CUTOFF = 1e-6
# coordinate differences per block of _sorted_dedupe (8 MB): up to 512 rows
# of 4 coordinates, so a solve at the default 256 starts is one block
_DEDUPE_BLOCK = 2 ** 20


# ---------------------------------------------------------------------------
# pairwise equivalence test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    residual_parallel: float
    residual_length: float
    scale: float
    tol: float


def is_equivalent(g: Geometry, a: GeomVector, b: GeomVector, tol: float = 1e-9) -> EquivalenceReport:
    """Joint parallelism + equal-length test; reflexive and symmetric by construction.

    It sees the float light cone, not the exact one: in ``Geometry.discrete(0.01)``
    the exactly null vector (0,0,0,0) -> (0.3,0.1,0.2,0.2) has float sigma_M =
    -1.4e-17, so sigma_d = -0.01, and its translate by (0.1,0,0,0) has sigma_M =
    0 and sigma_d = 0: the two are not equivalent, residual_length = -2 lambda0_sq.
    """
    _finite("tol", tol, 0.0)
    eq, r_par, r_len, scale = _equivalence_residuals(g, a.origin, a.end, b.origin, b.end, tol)
    return EquivalenceReport(bool(eq), float(r_par), float(r_len), float(scale), tol)


def _equivalence_residuals(g, a0, a1, b0, b1, tol):
    """(equivalent, residual_parallel, residual_length, scale) of a0a1 vs b0b1; broadcasts."""
    two_a = 2.0 * np.asarray(sigma(g, a0, a1))
    two_b = 2.0 * np.asarray(sigma(g, b0, b1))
    ab = np.asarray(_scalar_product_arrays(g, a0, a1, b0, b1))
    r_len = two_a - two_b
    r_par = ab - 0.5 * (two_a + two_b)
    scale = np.maximum(1.0, np.maximum(np.abs(two_a), np.abs(two_b)))
    eq = (np.abs(r_par) <= tol * scale) & (np.abs(r_len) <= tol * scale)
    return eq, r_par, r_len, scale


def _skeleton_pair_reports(g, a, b, tol):
    """Equivalence of a[..., i] a[..., k] and b[..., i] b[..., k] for all pairs i < k.

    a, b: skeleton stacks (..., size, dim), tested in one call.  Returns the
    (..., pairs) residual arrays and per skeleton the {(i, k): report} dict of
    per-pair ``is_equivalent`` calls, bit for bit.
    """
    i, k = np.triu_indices(a.shape[-2], 1)
    res = _equivalence_residuals(g, a[..., i, :], a[..., k, :], b[..., i, :], b[..., k, :], tol)
    pairs = list(zip(i.tolist(), k.tolist()))
    rows = zip(*(np.reshape(x, (-1, len(pairs))).tolist() for x in res))
    return res, [{p: EquivalenceReport(*rep, tol) for p, *rep in zip(pairs, *row)} for row in rows]


# ---------------------------------------------------------------------------
# multistart solver for the equivalence equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig(_Config):
    """Settings of ``solve_equivalent``.

    ``tol`` applies to every geometry.  On the Minkowski substrate
    ``max_iter`` caps the main Newton pass of both branches.  ``starts``,
    ``box_half_width`` and ``seed`` place the multistart's rows (the
    translation guess, then random starts) and ``dedupe_radius`` merges them.
    The multistart runs only where the slope-cell walk does not apply (q0 on
    the line p0p1, a null P0P1, ...); the generic branch reads none of the four.
    The Euclidean closed form reads neither ``max_iter`` nor those four.
    """

    starts: int = 256
    max_iter: int = 100
    tol: float = 1e-9
    dedupe_radius: float = 1e-4
    box_half_width: float = 5.0
    seed: int = 0

    _MINIMUMS = {"starts": 1, "max_iter": 0, "tol": 0.0, "dedupe_radius": 0.0,
                 "box_half_width": 0.0, "seed": 0}


@dataclass(frozen=True)
class SolverDiagnostics:
    """What the solver did.

    A Euclidean solve runs no Newton: it reports 0 starts, converged rows,
    iterations, stalls, doubled steps, merges and cells, and rank 1, the rank
    of the Jacobian at the translation, whose parallelism row vanishes there.
    On the Minkowski substrate ``starts_attempted`` counts the rows of the
    main Newton pass.  A generic solve's are one root per non-empty slope
    cell (``cells_examined`` cell pairs (i, j) of F walked, ``cells_nonempty``
    of them non-empty): ``starts_attempted - converged_count`` counts the
    cells whose closed-form root missed ``tol`` and the main pass could not
    pull in, and nothing is merged.  The multistart's (both cell counts 0)
    are the translation guess and random starts; ``merged_count`` counts the
    representatives its cover dropped, within the dedupe radius of another
    or in the tolerance tube of an isolated root.  ``jacobian_rank`` is read
    at the first representative of the highest dimension.  ``iterations``,
    ``stalled_count`` and ``doubled_steps`` count the main pass's ladder
    evaluations, starts that no rung improved and steps accepted at the
    doubled step lambda = 2 (the multistart's polish is not counted).
    """

    starts_attempted: int
    converged_count: int
    dedupe_radius: float
    jacobian_rank: int
    iterations: int
    stalled_count: int
    doubled_steps: int
    merged_count: int
    cells_examined: int
    cells_nonempty: int


@dataclass(frozen=True)
class SolutionSet:
    """Representative solutions of the equivalence equations at one point.

    ``manifold_dim_estimate`` is 0 when every representative is an isolated
    root and n - 2 when one lies on a solution manifold: the cell walk's
    verdict, one representative per non-empty cell, or ``_manifold_dims``'s.
    It takes no other value, so a null P0P1 reads n - 2 where the set is a
    line: (0,0,0,0) -> (1,1,0,0) at q0 = 0 on Minkowski is ``multi``,
    dimension 2, with every representative within 5e-11 of q0 + t (p1 - p0).
    A Euclidean set is exact: ``single``, dimension 0, the translation alone.
    """

    representatives: list
    variance: str  # "zero" | "single" | "multi"
    manifold_dim_estimate: int
    residuals: list
    diagnostics: SolverDiagnostics

    def to_dict(self) -> dict:
        return {
            "variance": self.variance,
            "manifold_dim_estimate": self.manifold_dim_estimate,
            "representatives": [r.tolist() for r in self.representatives],
            "residuals": [list(r) for r in self.residuals],
            "diagnostics": asdict(self.diagnostics),
        }


class _ResidualMap:
    """Residuals of the two equivalence equations as a function of the end point.

    The rows are ``_equivalence_residuals``'s (r_par, r_len) of P0P1 against
    Q0X, bit for bit.  The sigma terms involving only p0, p1, q0 are
    precomputed by one stacked sigma call, so a batch needs one sigma call
    over the stacked reference points and a Jacobian one ``sigma_gradient``
    call over the same stack.
    """

    def __init__(self, g, p0, p1, q0):
        self.g = g
        self.n = p0.shape[0]
        self.refs = np.array([p0, p1, q0])  # (3, n)
        # sigma(p0, p1), sigma(p1, q0), sigma(p0, q0): a row of a stacked call
        # rounds as the scalar call does
        s_p0p1, self.s_p1q0, self.s_p0q0 = sigma(g, np.array([p0, p1, p0]),
                                                 np.array([p1, q0, q0])).tolist()
        self.two_a = 2.0 * s_p0p1

    def __call__(self, X):
        """X of shape (m, n) -> residual rows (m, 2)."""
        s = sigma(self.g, self.refs[:, None, :], X[None, :, :])  # (3, m)
        res = np.empty((X.shape[0], 2))
        two_b = 2.0 * s[2]
        # (a.b) associated as in _scalar_product_arrays
        res[:, 0] = (((s[0] + self.s_p1q0) - self.s_p0q0) - s[1]) - 0.5 * (self.two_a + two_b)
        res[:, 1] = self.two_a - two_b
        return res

    def jacobian(self, X):
        """Analytic Jacobian rows (m, 2, n) of the residuals at X of shape (m, n).

        The residuals are sums of sigma(ref, X), so with
        G_k = d sigma(ref_k, X) / dX the rows are G_0 - G_1 - G_2 (parallelism)
        and -2 G_2 (length).
        """
        G = sigma_gradient(self.g, self.refs[:, None, :], X[None, :, :])  # (3, m, n)
        J = np.empty((X.shape[0], 2, X.shape[1]))
        np.subtract(G[0], G[1], out=J[:, 0])
        J[:, 0] -= G[2]
        np.multiply(-2.0, G[2], out=J[:, 1])
        return J


def _pinv_rows(J):
    """Moore-Penrose pseudo-inverses (m, n, 2) of Jacobian rows J (m, 2, n).

    Rows whose Gram matrix J J^T = [[a, b], [b, c]] is well conditioned take
    the closed form J^T (J J^T)^-1; the rest, e.g. the rank-1 Jacobian at a
    substrate tangent point, fall back to the SVD of ``np.linalg.pinv``.
    """
    Jt = J.transpose(0, 2, 1)
    gram = J @ Jt
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    det = a * c - b * b
    closed = det > _GRAM_CUTOFF * (a + c) ** 2
    adj = np.empty_like(gram)  # adjugate: (J J^T)^-1 = adj / det
    adj[:, 0, 0], adj[:, 1, 1] = c, a
    adj[:, 0, 1] = adj[:, 1, 0] = -b
    P = Jt @ (adj / np.where(closed, det, 1.0)[:, None, None])
    if not closed.all():
        P[~closed] = np.linalg.pinv(J[~closed])
    return P


def _newton(rmap: _ResidualMap, X0, tol_abs, max_iter):
    """Damped pseudo-inverse Newton on the 2-equation residual map.

    Runs all rows of X0 simultaneously, stepping with the analytic Jacobian
    and ``_pinv_rows`` (closed-form 2x2 normal equations, SVD only for
    ill-conditioned rows).  The line search evaluates the whole ``_LADDER``
    of step lengths 1 ... 1/16 in one residual call, and each row takes the
    first rung that lowers its max-norm residual: exactly a sequential
    halving capped at five trials, since residual rows do not depend on the
    batch.  At a double root, such as a substrate tangent point, a
    full step only halves the distance and the residual norm falls by 1/4 per
    step; a row whose last accepted ratio was that close to 1/4 evaluates
    the ladder scaled by 2 instead, and takes lambda = 2 only where it beats
    lambda = 1 (Decker, Keller & Kelley, SIAM J. Numer. Anal. 20, 1983).
    A row that no rung improves, such as a start that could only crawl to a
    near-cone root by shorter steps, stalls out unconverged rather than
    raising; an accepted trial keeps the residual row and norm the ladder
    computed.

    Returns (points, residual_rows, converged_mask, stalled_mask,
    doubled_steps, iterations), iterations counting the ladder evaluations
    and doubled_steps the row steps accepted at lambda = 2.
    """
    X = np.array(X0, dtype=float)
    res = rmap(X)
    rnorm = np.abs(res).max(axis=1)
    converged = rnorm <= tol_abs
    stalled = np.zeros(len(X), dtype=bool)
    active = ~converged
    ratio = np.ones(len(X))  # last accepted residual norm over the one before
    doubled_steps = iterations = 0
    for _ in range(max_iter):
        if not active.any():
            break
        ia = np.flatnonzero(active)
        Xa = X[ia]
        J = rmap.jacobian(Xa)
        bad = ~np.all(np.isfinite(J), axis=(1, 2))
        if bad.any():
            active[ia[bad]] = False
            ia, Xa, J = ia[~bad], Xa[~bad], J[~bad]
            if ia.size == 0:
                break
        iterations += 1
        step = -np.einsum("mij,mj->mi", _pinv_rows(J), res[ia])
        double = np.abs(ratio[ia] - 0.25) < _DOUBLE_BAND
        lam = _LADDER[:, None] * np.where(double, 2.0, 1.0)  # (rungs, rows)
        trial = Xa + lam[..., None] * step
        tres = rmap(trial.reshape(-1, X.shape[1])).reshape(len(_LADDER), ia.size, 2)
        tnorm = np.abs(tres).max(axis=2)
        ok = tnorm < rnorm[ia]
        ok[0] &= ~double | (tnorm[0] < tnorm[1])  # lambda = 2 only where it beats 1
        accepted = ok.any(axis=0)
        rung = ok.argmax(axis=0)[accepted]
        moved = ia[accepted]
        doubled_steps += int(np.count_nonzero(double[accepted] & (rung == 0)))
        ratio[moved] = tnorm[rung, accepted] / rnorm[moved]
        X[moved] = trial[rung, accepted]
        res[moved] = tres[rung, accepted]
        rnorm[moved] = tnorm[rung, accepted]
        stalled[ia[~accepted]] = True
        active[ia[~accepted]] = False
        newly = moved[rnorm[moved] <= tol_abs]
        converged[newly] = True
        active[newly] = False
    return X, res, converged, stalled, doubled_steps, iterations


def _sorted_dedupe(points, radius, quality):
    """Indices of the rows kept by a greedy chart-distance dedupe with a deterministic order.

    Lower-quality values claim their cluster first, ties in coordinate
    order, so the best-converged point represents it: a point is kept when
    it lies farther than radius from every point kept before it.  radius is
    one scalar or a radius per row, the reach of the row as a kept point.
    The distances from the next rows of the greedy order that are still free
    to all rows come from one broadcast block of at most ``_DEDUPE_BLOCK``
    differences, so memory is linear in the row count; a default-size solve
    fits in one block.  The indices are sorted lexicographically by point, so
    the merge order never shows in the result and rows of other arrays can
    travel with their points.
    """
    m = len(points)
    order = np.lexsort(tuple(points.T[::-1]) + (quality,))
    radius = np.asarray(radius)
    rows = max(1, _DEDUPE_BLOCK // max(1, points.size))
    free = np.ones(m, dtype=bool)  # not near a kept point
    kept = np.zeros(m, dtype=bool)
    for start in range(0, m, rows):
        block = order[start:start + rows]
        block = block[free[block]]  # a covered row is never kept
        for i, covers in zip(block.tolist(), _covers(points, block, radius)):
            if free[i]:
                kept[i] = True
                free &= ~covers
    kept = np.flatnonzero(kept)
    return kept[np.lexsort(points[kept].T[::-1])]


def _covers(points, block, radius):
    """near[k, j]: row j lies within the radius of row block[k] (chart distance)."""
    diff = points[block, None, :] - points[None, :, :]
    # matmul rounds each sum of squares like the BLAS dot behind a 1-D
    # np.linalg.norm, so a distance equal to the radius merges exactly as in
    # the per-pair loop the tests keep as reference
    dist = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    return dist <= (radius[block, None] if radius.ndim else radius)


def _manifold_dims(rmap: _ResidualMap, reps, radius, tol_abs):
    """Solution-set dimension (0 or n - 2), Jacobian rank and tube reach at each representative.

    With J = U S V^T, c = U[:, -1] and K the rows of V^T after the first, the
    residual combination c . r on K is s_min y0 + y^T A y / 2 to second order,
    A = K (c . H) K^T for the residual Hessians H.  On the Minkowski
    substrate each sigma(ref_k, X) has the Hessian F'(sigma_M) eta off the
    kinks of F, so c . H is the diagonal (c_0 (s_0 - s_1 - s_2) - 2 c_1 s_2) eta
    for the slopes s_k, read at X - ref_k as ``sigma_gradient`` reads them:
    at a kink or the discrete jump the slope Newton used.  A definite A keeps the
    roots within 2 s_min / min|eig A| of the representative: it is isolated
    when that is within the dedupe radius.  Otherwise the roots form an
    (n - 2)-manifold: by the implicit function theorem at full rank, a cone
    at rank 1 (Griewank, SIAM Review 27, 1985).  The reach of an isolated
    root, sqrt(2 tol_abs / min|eig A|), bounds its tolerance tube: beyond it
    the definite model puts the residual above tol_abs.  Manifold
    representatives have reach 0.
    """
    J = rmap.jacobian(reps)
    U, S, Vt = np.linalg.svd(J)
    rank = (S > _RANK_CUTOFF * S[:, :1]).sum(axis=1)
    K = Vt[:, 1:]
    c = U[:, :, -1]
    s = rmap.g.deformation.slope(_sigma_m(reps - rmap.refs[:, None, :]))  # (3, m)
    cH = (c[:, 0] * ((s[0] - s[1]) - s[2]) + c[:, 1] * (-2.0 * s[2]))[:, None] * _ETA
    eig = np.linalg.eigvalsh((K * cH[:, None, :]) @ K.transpose(0, 2, 1))
    definite = (eig[:, 0] > 0.0) | (eig[:, -1] < 0.0)
    eig_min = np.abs(eig).min(axis=1)
    isolated = definite & (2.0 * S[:, -1] <= radius * eig_min)
    reach = np.sqrt(2.0 * tol_abs / np.where(isolated, eig_min, np.inf))
    return np.where(isolated, 0, rmap.n - 2), rank, reach


def _cell_starts(g, p0, p1, q0, rmap, tol_abs):
    """One root per non-empty slope cell of F, or None outside the generic branch.

    With Y = X - q0, u = p1 - p0 and w_k = q0 - p_k, the length equation is the
    quadric <Y, Y> = <u, u> (F is injective), on which sigma_M(p_k, X) = c_k +
    <Y, w_k> with c_k = sigma_M(u) + <w_k, w_k> / 2.  In the slope cell (i, j)
    of ``_cells`` the parallelism equation is the hyperplane <Y, n> = L with
    n = m_i w0 - m_j w1, cut by the cell's two intervals.  Write Y = Y_W + Y'
    with Y_W in W = span(w0, w1) and Y' in its eta-complement.  On the line
    Y_W = (L / <n, n>) n + s v of W, with v eta-orthogonal to n, the quadric
    reads <Y', Y'> = rho(s) = <u, u> - L^2 / <n, n> - s^2 <v, v>, whose
    extremum is s = 0.  With det G < 0 (G the eta-Gram matrix of w0, w1) the
    complement is negative definite: the cell holds a surface where rho falls
    below -tol_rho on its segment, else a tangent point where rho only reaches
    0 (within tol_rho, so that the point passes at tol_abs).  With det G > 0
    it is indefinite and every point of the segment carries a hyperbola.
    Each non-empty cell gives one point, at ``_cell_point``'s s, with Y' along
    a fixed eta-eigendirection of the complement.

    The branch needs q0 off the line p0p1 (w0, w1 independent), G
    non-singular and every n non-null (for i = j, n = m_i u: u is not null),
    each by ``_GENERIC_CUTOFF``.  It returns the cells' points, dimensions
    (n - 2 or 0), Jacobian ranks and the number of cells examined.  None sends
    the solve to the multistart: q0 on (or near) the line p0p1, a null W, u or
    n, or a cell whose verdict hangs on an end of its segment, a breakpoint of
    F.  The sets where sigma_M(p_k, X) is exactly 0, curves at the jump of the
    discrete F, are not walked.
    """
    u = p1 - p0
    w = q0 - np.stack([p0, p1])
    # W = span(w0, u): its Gram determinants in that basis, free of the
    # cancellation in w0 - w1 = u; det is the eta one of (w0, w1) too
    basis = np.stack([w[0], u])
    gram_e = basis @ basis.T
    det_e = gram_e[0, 0] * gram_e[1, 1] - gram_e[0, 1] * gram_e[0, 1]
    gram = (basis * _ETA) @ basis.T
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[0, 1]
    xs, m, xa, ya = _cells(g.deformation)
    i, j = np.divmod(np.arange(len(m) ** 2), len(m))
    n = m[i, None] * u + (m[i] - m[j])[:, None] * w[1]  # m_i w0 - m_j w1
    nn = np.sum(n * n * _ETA, axis=1)
    scale = max(float(p @ p) for p in (p0, p1, q0))
    if not (det_e > _GENERIC_CUTOFF * gram_e[1, 1] * scale and abs(det) > _GENERIC_CUTOFF * det_e
            and np.all(np.abs(nn) > _GENERIC_CUTOFF * np.sum(n * n, axis=1))):
        return None
    uu = gram[1, 1]
    c = 0.5 * (uu + np.sum(w * w * _ETA, axis=1))
    # F(l0) - F(l1) = two_a + sigma(p0, q0) - sigma(p1, q0) on the quadric
    K = rmap.two_a + rmap.s_p0q0 - rmap.s_p1q0
    L = K - (ya[i] - m[i] * xa[i]) + (ya[j] - m[j] * xa[j]) - m[i] * c[0] + m[j] * c[1]
    nw = (n * _ETA) @ np.stack([w[0], w[1], u]).T  # <n, w0>, <n, w1>, <n, u>
    # (<Y, w0>, <Y, w1>) is gv at s = 0 and moves by (m_j, m_i) per unit of s along v
    gv = (L / nn)[:, None] * nw[:, :2]
    step = np.stack([m[j], m[i]], axis=1)
    edges = np.concatenate([[-np.inf], xs, [np.inf]])
    s_lo = ((np.stack([edges[i], edges[j]], axis=1) - c - gv) / step).max(axis=1)
    s_hi = ((np.stack([edges[i + 1], edges[j + 1]], axis=1) - c - gv) / step).min(axis=1)
    v = (nw[:, 2:] * w[0] - nw[:, :1] * u) / det
    A = -np.sum(v * v * _ETA, axis=1)
    C = uu - L * L / nn
    if not (np.isfinite(A).all() and np.isfinite(C).all()):
        return None

    tol_rho = tol_abs / float(m.max())
    cells, at = [], []
    for p in np.flatnonzero(s_lo <= s_hi).tolist():
        t = _cell_point(float(s_lo[p]), float(s_hi[p]), float(A[p]), float(C[p]), det < 0.0,
                        tol_rho)
        if t is None:
            return None
        if not math.isnan(t):
            cells.append(p)
            at.append(t)
    s = np.array(at)
    rho = A[cells] * s * s + C[cells]
    rho[np.abs(rho) <= tol_rho] = 0.0  # a tangent point, within tol_abs of the quadric
    Y = (L / nn)[cells, None] * n[cells] + s[:, None] * v[cells]
    # the eta-complement of W, diagonalised: <e_a, e_b> = lam_a delta_ab, lam ascending
    N = np.linalg.svd(basis * _ETA)[2][2:]
    lam, V = np.linalg.eigh((N * _ETA) @ N.T)
    E = V.T @ N
    side = (rho > 0.0).astype(int)  # lam[0] < 0 always; lam[1] > 0 only where indefinite
    Y += np.sqrt(np.maximum(rho / lam[side], 0.0))[:, None] * E[side]
    # the verdict reads rho's least on the segment, not at the point: |s| largest if A < 0
    z = np.where(A[cells] < 0.0, np.maximum(-s_lo, s_hi)[cells], np.clip(0.0, s_lo, s_hi)[cells])
    dims = np.where((det > 0.0) | (A[cells] * z * z + C[cells] < -tol_rho), len(q0) - 2, 0)
    # Y is along n where rho = 0 at s = 0, a tangent point or an apex: rank 1
    return q0 + Y, dims, np.where((rho == 0.0) & (s == 0.0), 1, 2), len(m) ** 2


def _cell_point(lo, hi, A, C, definite, tol_rho):
    """s of one root on a cell's segment lo <= s <= hi, where <Y', Y'> = rho(s) = A s^2 + C.

    NaN where the cell is empty, None where its verdict hangs on an end of the
    segment, a breakpoint of F.  An indefinite complement has roots over every
    s, a definite (negative) one over every s with rho(s) <= 0.  The point is
    the extremum s = 0 where it is inside the segment and, for a definite
    complement, on the surface (rho < -tol_rho) or a minimum of rho within
    tol_rho of 0 (a tangent point).  Otherwise it is the middle of the first
    part of the segment, split at the roots of rho, with roots over it.
    """
    if lo == hi:  # the line meets the box at a corner only
        return None if not definite or A * lo * lo + C <= tol_rho else math.nan
    if lo < 0.0 < hi and (not definite or C < -tol_rho or (A >= 0.0 and C <= tol_rho)):
        return 0.0
    if not definite:
        return _middle(lo, hi)
    r = math.sqrt(-C / A) if A and -C / A >= 0.0 else math.nan
    cuts = [lo, *(x for x in (-r, r) if lo < x < hi), hi]
    for a, z in zip(cuts, cuts[1:]):
        s = _middle(a, z)
        if A * s * s + C < 0.0:
            return s
    ends = [A * e * e + C for e in (lo, hi) if math.isfinite(e)]
    return None if min(ends, default=math.inf) <= tol_rho else math.nan


def _middle(lo, hi):
    """A point strictly inside (lo, hi), finite whatever the ends."""
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(hi):
        return lo + max(1.0, abs(lo))
    if math.isinf(lo):
        return hi - max(1.0, abs(hi))
    return 0.5 * (lo + hi)


def solve_equivalent(g: Geometry, p0, p1, q0, cfg: SolverConfig | None = None) -> SolutionSet:
    """Find end points Q1 such that the vector Q0Q1 is equivalent to P0P1.

    In the Euclidean geometry, with Y = Q1 - Q0 and u = P1 - P0, the length
    equation is |Y|^2 = |u|^2 and the parallelism equation <Y, u> = |u|^2,
    so Cauchy-Schwarz equality forces Y = u: the result is the translation
    Q0 + u, ``single``, found without Newton (``cfg``'s ``starts``,
    ``max_iter``, ``box_half_width`` and ``seed`` are not read).  It is
    still checked by the pairwise test's residuals, and a translation that
    fails them at ``tol`` in float arithmetic raises ``SolverFailureError``.

    On the Minkowski substrate, for a generic input (Q0 off the line P0P1,
    no null P0P1, see ``_cell_starts``) the Newton rows are one exact root
    per non-empty slope cell of F, so the result does not depend on
    ``starts``, ``box_half_width`` or ``seed``.  The representatives are the
    roots that meet ``tol``, one per cell, each classified by its cell's
    verdict.  Any other input keeps the multistart: the chart-translation
    guess, then seeded random points in a box around Q0.  Its converged
    solutions are deduplicated (sorted, by chart distance), polished by 12
    more Newton steps at tolerance 0 and classified by a second-order test
    (``_manifold_dims``), and one cover then merges them, each covering the
    larger of the dedupe radius and its tolerance-tube reach.  The reported
    residuals are the rows Newton computed at the representatives, equal to
    ``is_equivalent``'s (r_par, r_len) of P0P1 against Q0Q1 bit for bit:

    * ``zero``   -- no solution found (an empty set is a valid outcome),
    * ``single`` -- one representative, an isolated root,
    * ``multi``  -- several representatives or an (n - 2)-dimensional manifold.
    """
    cfg = SolverConfig._given(cfg)
    p0 = as_point(p0, dim=g.dim)
    p1 = as_point(p1, dim=g.dim)
    q0 = as_point(q0, dim=g.dim)
    if np.array_equal(p0, p1):
        raise InvalidInputError("p0 and p1 must differ")

    u = p1 - p0
    radius = cfg.dedupe_radius * max(1.0, float(np.linalg.norm(u)))
    rmap = _ResidualMap(g, p0, p1, q0)
    tol_abs = cfg.tol * max(1.0, abs(rmap.two_a))
    if not g.has_minkowski_substrate:
        X = q0 + u
        [(r_par, r_len)] = rmap(X[None]).tolist()
        if not (abs(r_par) <= tol_abs and abs(r_len) <= tol_abs):
            raise SolverFailureError(
                "the translation q0 + (p1 - p0), this geometry's one solution, fails the "
                "equivalence test at tol in float arithmetic")
        diags = SolverDiagnostics(0, 0, radius, 1, 0, 0, 0, 0, 0, 0)
        return SolutionSet([X], "single", 0, [(r_par, r_len)], diags)

    cells = _cell_starts(g, p0, p1, q0, rmap, tol_abs)
    if cells is None:
        rng = np.random.default_rng(cfg.seed)
        starts = np.empty((cfg.starts, g.dim))
        starts[0] = q0 + u  # translation guess: exact in Minkowski
        starts[1:] = q0 + rng.uniform(-cfg.box_half_width, cfg.box_half_width,
                                      size=(cfg.starts - 1, g.dim))
        examined = nonempty = 0
    else:
        starts, dims, ranks, examined = cells
        nonempty = len(starts)

    X, res, conv, stalled, doubled, iterations = _newton(rmap, starts, tol_abs, cfg.max_iter)
    if not conv.any():
        if g.kind == "minkowski":
            raise SolverFailureError(
                "no start converged although this geometry has an analytic solution")
        diags = SolverDiagnostics(len(starts), 0, radius, 0, iterations, int(stalled.sum()),
                                  doubled, 0, examined, nonempty)
        return SolutionSet([], "zero", 0, [], diags)

    X, res = X[conv], res[conv]
    if cells is None:
        idx = _sorted_dedupe(X, radius, np.abs(res).max(axis=1))
        # polish: at tangential solutions a residual of tol only pins the position
        # to O(sqrt(tol)); iterate the cluster representatives on to the numerical
        # floor.  Only steps that lower the residual are taken, so every polished
        # row stays within tol_abs and passes the pairwise test
        reps, res, *_ = _newton(rmap, X[idx], 0.0, 12)
        dims, ranks, reach = _manifold_dims(rmap, reps, radius, tol_abs)
        # one cover merges whatever collapsed together, and a point left in the
        # tolerance tube of an isolated root is that root
        kept = _sorted_dedupe(reps, np.maximum(radius, reach), np.abs(res).max(axis=1))
        reps, res, dims, ranks = reps[kept], res[kept], dims[kept], ranks[kept]
    else:  # one root per non-empty cell, on the set to rounding and classified by the walk
        idx = np.lexsort(X.T[::-1])
        reps, res, dims, ranks = X[idx], res[idx], dims[conv][idx], ranks[conv][idx]

    variance = "single" if len(reps) == 1 and dims[0] == 0 else "multi"
    diags = SolverDiagnostics(len(starts), int(conv.sum()), radius, int(ranks[np.argmax(dims)]),
                              iterations, int(stalled.sum()), doubled, len(idx) - len(reps),
                              examined, nonempty)
    return SolutionSet(list(reps), variance, int(dims.max()), list(map(tuple, res.tolist())), diags)


# ---------------------------------------------------------------------------
# the spacelike solution family of the Minkowski geometry
# ---------------------------------------------------------------------------

_MINKOWSKI = Geometry.minkowski()


def minkowski_spacelike_family(y: GeomVector, alpha: float, n_hat,
                               tol: float = 1e-9) -> GeomVector:
    """Member of the solution family equivalent to a spacelike vector y.

    The family shifts the end point by a null displacement (alpha, alpha*n)
    with n a unit 3-direction satisfying y_vec . n = y^0 (the cone-angle
    constraint).  Exactly, every member is equivalent to y under any F with
    F(0) = 0.  In floats ``is_equivalent``'s residuals round sigma terms of
    size alpha^2 and grow like alpha^2 2^-52: within 1e-12 for unit-scale y
    at |alpha| <= 10, 7.8e-10 at alpha = 1e3, and r_par = -9.5e-7 (not
    equivalent) at alpha = 1e5 for y = (0.1,0.2,0.3,0.4) -> (0.6,1.2,0.3,0.4),
    n = (0.5, sqrt(0.75), 0).  A jump of F at 0 (the discrete shift) can turn
    the last-ulp rounding of |n|^2 into a finite parallel residual.
    """
    _finite("tol", tol, 0.0)
    if y.dim != 4:
        raise InvalidInputError("the spacelike family lives in the 4-d Minkowski chart")
    if squared_length(_MINKOWSKI, y) >= 0:
        raise FamilyUndefinedError("family exists only for spacelike vectors")
    n = np.asarray(n_hat, dtype=float)
    if n.shape != (3,):
        raise InvalidDirectionError("n_hat must be a 3-direction")
    if abs(np.linalg.norm(n) - 1.0) > tol:
        raise InvalidDirectionError("n_hat must be a unit vector")
    disp = y.displacement
    y0, yv = disp[0], disp[1:]
    if abs(float(yv @ n) - y0) > tol * max(1.0, float(np.linalg.norm(yv))):
        raise InvalidDirectionError(
            "n_hat violates the cone-angle constraint y_vec . n = y0")
    end = y.origin + np.concatenate([[y0 + alpha], yv + alpha * n])
    return GeomVector(y.origin, end)


# ---------------------------------------------------------------------------
# intransitivity search
# ---------------------------------------------------------------------------

def find_intransitivity_witness(g: Geometry, seed: int = 0, budget: int = 10000,
                                tol: float = 1e-9):
    """Vectors (a, b, c) with a eqv b, b eqv c but not a eqv c, or None.

    On the Minkowski substrate each candidate is ``_witness_block``'s exact
    template, a base b and two null shifts a, c of it: a~b and b~c hold with
    residuals exactly 0.0 under every F, and a~c has r_par = -F(sigma_M(s1 -
    s2)) != 0 for every strictly increasing F.  ``seed`` draws the placements
    and up to ``budget`` are tested, ``_WITNESS_BLOCK`` per batched residual
    call; the first witness in draw order is returned, whatever the block size.
    In the Euclidean geometry equivalence is translation (``solve_equivalent``),
    which is transitive: None, with nothing drawn or tested.
    """
    budget = _integral("budget", budget, 0)
    seed = _integral("seed", seed, 0)
    _finite("tol", tol, 0.0)
    if not g.has_minkowski_substrate:
        return None
    rng = np.random.default_rng(seed)
    for start in range(0, budget, _WITNESS_BLOCK):
        o, e, a1, c1 = _witness_block(rng, min(_WITNESS_BLOCK, budget - start))
        hit = (_equivalence_residuals(g, o, a1, o, e, tol)[0]
               & _equivalence_residuals(g, o, e, o, c1, tol)[0]
               & ~_equivalence_residuals(g, o, a1, o, c1, tol)[0])
        if hit.any():
            i = int(np.argmax(hit))
            return GeomVector(o[i], a1[i]), GeomVector(o[i], e[i]), GeomVector(o[i], c1[i])
    return None


# witness template y, s1, s2: <s1, s1> = <s2, s2> = <y, s1> = <y, s2> = 0, <y, y> = -10
_TEMPLATE = np.array([[2.0, 3.0, 1.0, -2.0], [3.0, 2.0, 2.0, 1.0], [3.0, 2.0, -2.0, -1.0]])
_AXES = np.array([(0,) + p for p in itertools.permutations((1, 2, 3))])  # time stays first
# [low, high) per placement column: origin in units of 2^-10, spatial axis
# order, three spatial signs, exponents j, k of the scales 2^-j of y, 2^-k of s
_PLACEMENT = np.array([(-1024, 1025)] * 4 + [(0, 6)] + [(0, 2)] * 3 + [(0, 4)] * 2).T


def _witness_block(rng, m):
    """Point rows (o, e, a1, c1) of m candidates b = o e, a = o a1, c = o c1.

    Row i of one integer draw places the template under a signed permutation
    of the spatial axes at a dyadic origin: every coordinate difference is a
    short dyadic number, so every sigma_M of a candidate is exact.
    """
    draw = rng.integers(*_PLACEMENT, size=(m, _PLACEMENT.shape[1]))
    signs = np.column_stack([np.ones(m), 1 - 2 * draw[:, 5:8]])
    y, s1, s2 = _TEMPLATE[:, _AXES[draw[:, 4]]] * signs
    o = draw[:, :4] / 1024.0
    e = o + y * 0.5 ** draw[:, 8:9]
    shift = 0.5 ** draw[:, 9:10]
    return o, e, e + shift * s1, e + shift * s2


# ---------------------------------------------------------------------------
# collinearity, straights, segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollinearityReport:
    collinear: bool
    residual: float
    scale: float


def is_collinear(g: Geometry, a: GeomVector, b: GeomVector, tol: float = 1e-9) -> CollinearityReport:
    """Gram-determinant collinearity: |a|^2 |b|^2 - (a.b)^2 = 0."""
    _finite("tol", tol, 0.0)
    two_a = squared_length(g, a)
    two_b = squared_length(g, b)
    ab = scalar_product(g, a, b)
    residual = two_a * two_b - ab * ab
    scale = max(1.0, abs(two_a), abs(two_b), abs(ab))
    return CollinearityReport(abs(residual) <= tol * scale * scale, residual, scale)


def line_membership(g: Geometry, q0, direction: GeomVector, r, tol: float = 1e-9) -> bool:
    """Membership of r in the straight through q0 collinear to the given vector.

    In deformed geometries this set is generally not one-dimensional.  r = q0
    counts as a member (the zero vector is collinear to everything).
    """
    if np.array_equal(direction.origin, direction.end):
        raise InvalidInputError("direction vector must have distinct points")
    return is_collinear(g, GeomVector(q0, r), direction, tol).collinear


@dataclass(frozen=True)
class SegmentReport:
    member: bool
    defect: float
    in_domain: bool


def segment_membership(g: Geometry, p0, p1, r, tol: float = 1e-9) -> SegmentReport:
    """Membership of r in the segment between p0 and p1 via the triangle defect

        defect = sqrt(2 s(p0,r)) + sqrt(2 s(r,p1)) - sqrt(2 s(p0,p1))

    Points where any sigma is negative (see ``triangle_defect``) are out of
    the real-distance domain and reported as non-members with in_domain = False.
    On the light cone the float sigma_M decides (see ``is_equivalent``): in
    ``Geometry.discrete(0.01)`` r = (0.3,0.1,0.2,0.2) is out of the domain of
    p0 = (0,0,0,0), p1 = (2,0,0,0), and translated by (0.1,0,0,0) all three are in.
    """
    _finite("tol", tol, 0.0)
    p0 = as_point(p0, dim=g.dim)
    p1 = as_point(p1, dim=g.dim)
    r = as_point(r, dim=g.dim)
    s_ab = sigma(g, p0, p1)
    defect = triangle_defect(g, p0, p1, r)
    if s_ab <= 0 or math.isnan(defect):
        return SegmentReport(False, float("nan"), False)
    return SegmentReport(abs(defect) <= tol * math.sqrt(2.0 * s_ab), defect, True)


# ---------------------------------------------------------------------------
# tube sampling of segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeSamplerConfig(_Config):
    stations: int = 64
    directions: int = 16
    tol: float = 1e-9
    seed: int = 0
    max_radius: float | None = None  # default: chart length of the segment

    _MINIMUMS = {"stations": 0, "directions": 0, "tol": 0.0, "seed": 0, "max_radius": 0.0}


@dataclass(frozen=True, eq=False)
class TubeSample:
    """Sampled tube of a segment: per-station transverse radii and a point cloud.

    ``radii[s, d]`` is the first radius at which the triangle defect crosses
    zero along direction d at station s, NaN where ``sample_segment_tube``
    brackets none; ``profile[s]`` averages the directions that found one.  A
    station where no direction did is empty: its profile is NaN and it has
    no points.  ``points`` holds rows (t, r, coords...) of sampled members,
    t being the chart arc length of the station from p0.
    """

    fractions: np.ndarray
    arc_positions: np.ndarray
    base_points: np.ndarray
    radii: np.ndarray
    profile: np.ndarray
    points: np.ndarray


def sample_segment_tube(g: Geometry, p0, p1, cfg: TubeSamplerConfig | None = None) -> TubeSample:
    """Sample the segment between p0 and p1 as a tube.

    Each station b sends rays b + r d, 0 <= r <= max_radius, along transverse
    chart directions d (seeded, orthogonal to the segment).  On a ray sigma_M(p0, .)
    and sigma_M(., p1) are quadratics in r whose closed-form crossings of F's
    breakpoints (``_cells``) split it into intervals where the defect follows F's
    linear cells.  The first interval in the domain whose ends differ in sign is
    bisected on those lines to a width of 1e-13, all rays at once: a jump of F is
    never bracketed.  The defect is concave within a cell (<d, d> < 0 and F
    increases), so a cell whose ends are both negative may hold two roots; it is
    not searched.  The Euclidean and Minkowski profiles vanish, deformed geometries
    give thick tubes; a station where no direction brackets a crossing is empty.
    """
    cfg = TubeSamplerConfig._given(cfg)
    if g.dim < 2:
        raise InvalidInputError("tube sampling needs dim >= 2: a 1-d chart has no transverse direction")
    p0 = as_point(p0, dim=g.dim)
    p1 = as_point(p1, dim=g.dim)
    s_ab = sigma(g, p0, p1)
    if s_ab <= 0:
        raise InvalidInputError("tube sampling requires sigma(p0, p1) > 0")

    u = p1 - p0
    length = float(np.linalg.norm(u))
    r_max = cfg.max_radius if cfg.max_radius is not None else length
    # orthonormal complement of the segment direction in the chart
    _, _, vt = np.linalg.svd((u / length)[None, :])
    complement = vt[1:]
    rng = np.random.default_rng(cfg.seed)
    raw = rng.normal(size=(cfg.directions, g.dim - 1))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw @ complement

    fractions = np.linspace(0.0, 1.0, cfg.stations)
    bases = p0[None, :] + fractions[:, None] * u[None, :]
    at_zero = np.abs(triangle_defect(g, p0, p1, bases)) <= cfg.tol * math.sqrt(2.0 * s_ab)

    # sigma_M(p0, R) and sigma_M(R, p1) are c0 + c1 r + c2 r^2 on axes (side, station, direction, r)
    metric = _ETA if g.has_minkowski_substrate else np.ones(g.dim)
    w = bases - np.stack([p0, p1])[:, None, :]
    c0 = 0.5 * np.sum(w * w * metric, axis=-1)[..., None, None]
    c1 = ((w * metric) @ dirs.T)[..., None]
    c2 = 0.5 * np.sum(dirs * dirs * metric, axis=-1)[:, None]
    xs, m, xa, ya = _cells(g.deformation)

    def defect(r, k):  # on the lines of cells k (side, ...), rounded up to 0 at sigma_M = 0
        F = np.maximum(ya[k] + m[k] * (c0 + r * (c1 + r * c2) - xa[k]), 0.0)
        return np.sqrt(2.0 * F[0]) + np.sqrt(2.0 * F[1]) - math.sqrt(2.0 * s_ab)

    # the breakpoint crossings by the stable quadratic formula; one outside
    # (0, r_max), or none, is r_max: an empty interval at the end of the ray
    with np.errstate(invalid="ignore", divide="ignore"):  # a NaN is never a bracket
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * (c0 - xs)), c1))
        roots = np.concatenate([*(q / c2), *((c0 - xs) / q)], axis=-1)
        roots = np.sort(np.where((roots > 0.0) & (roots < r_max), roots, r_max), axis=-1)
        lo = np.concatenate([np.zeros_like(roots[..., :1]), roots], axis=-1)
        hi = np.concatenate([roots, np.full_like(roots[..., :1], r_max)], axis=-1)
        mid = 0.5 * (lo + hi)
        k = np.searchsorted(xs, c0 + mid * (c1 + mid * c2))
        f_lo = defect(lo, k)
        # cells past the one ending at sigma_M = 0 are in the domain
        cell = (k > np.searchsorted(xs, 0.0)).all(axis=0) & (f_lo * defect(hi, k) <= 0.0)
        found = cell.any(axis=-1) & ~at_zero[:, None]
        j = cell.argmax(axis=-1)[..., None]  # the first bracket of each ray
        lo, hi, f_lo = (np.take_along_axis(a, j, axis=-1) for a in (lo, hi, f_lo))
        k = np.take_along_axis(k, j[None], axis=-1)

        # bisect every bracket at once to a width of 1e-13
        width = float(np.max((hi - lo)[found], initial=0.0))
        for _ in range(math.ceil(math.log2(max(width, 1e-13) / 1e-13))):
            mid = 0.5 * (lo + hi)
            f_mid = defect(mid, k)
            left = f_lo * f_mid <= 0.0
            hi = np.where(left, mid, hi)
            lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
    radii = np.where(found, 0.5 * (lo + hi)[..., 0], np.where(at_zero[:, None], 0.0, np.nan))

    found = np.isfinite(radii)
    counts = found.sum(axis=1)
    sums = np.where(found, radii, 0.0).sum(axis=1)
    profile = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    si, di = np.nonzero(found)
    r = radii[si, di]
    points = np.column_stack([fractions[si] * length, r, bases[si] + r[:, None] * dirs[di]])
    return TubeSample(fractions, fractions * length, bases, radii, profile, points)
