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
a quadric cut by a hyperplane: the solve walks every cell (``_cell_starts``)
and takes one exact point per non-empty piece of the set with the piece's
dimension, 0 to 3, then one damped Newton pass refines the points that miss
``tol``; ``find_intransitivity_witness`` builds broken-transitivity
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
    _mdot,
    _scalar_product_arrays,
    as_point,
    scalar_product,
    sigma,
    sigma_gradient,
    squared_length,
    triangle_defect,
)

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
# the walk (_cell_starts) takes q0 to be on the line p0p1 where the map
# Y -> (<Y, w0>, <Y, u>) has a singular value below this times its largest,
# and W (or u) to be null where a Euclidean-unit direction of its kernel has
# an eta-square within this of 0
_DEGENERATE = 1e-12


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
# the solution set of the equivalence equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig(_Config):
    """Settings of ``solve_equivalent``.

    ``tol`` applies to every geometry; on the Minkowski substrate
    ``max_iter`` caps the Newton pass that refines the walk's points.  No
    solve reads ``starts`` or ``seed``: they are still accepted and checked
    because the benchmark's calls pass them, and go with its next revision.
    """

    starts: int = 256
    max_iter: int = 100
    tol: float = 1e-9
    seed: int = 0

    _MINIMUMS = {"starts": 1, "max_iter": 0, "tol": 0.0, "seed": 0}


@dataclass(frozen=True)
class SolverDiagnostics:
    """What the solver did.

    A Euclidean solve runs no Newton: it reports 0 starts, converged rows,
    iterations, stalls, doubled steps and cells, and rank 1, the rank of the
    Jacobian at the translation, whose parallelism row vanishes there.  On
    the Minkowski substrate ``cells_examined`` counts the cell pairs of F
    walked (the knots and intervals of tau where q0 is on the line p0p1) and
    ``starts_attempted`` = ``cells_nonempty`` the walk's points,
    one per non-empty piece, which are the rows of one Newton pass:
    ``starts_attempted - converged_count`` counts the pieces whose point
    missed ``tol`` and the pass could not pull in.  ``iterations``,
    ``stalled_count`` and ``doubled_steps`` count the pass's ladder
    evaluations, rows that no rung improved and steps accepted at the
    doubled step lambda = 2.  ``jacobian_rank`` is the walk's rank at the
    first representative of the highest dimension: 2 at a smooth point of a
    2-surface, else 1.
    """

    starts_attempted: int
    converged_count: int
    jacobian_rank: int
    iterations: int
    stalled_count: int
    doubled_steps: int
    cells_examined: int
    cells_nonempty: int


@dataclass(frozen=True)
class SolutionSet:
    """Representative solutions of the equivalence equations at one point.

    On the Minkowski substrate the set is a union of pieces, one per
    non-empty slope cell of F, and each representative stands for one piece:
    ``manifold_dim_estimate`` is the largest piece dimension, 0 (isolated
    points) to 3.  A null P0P1 at q0 on its line gives a line: (0,0,0,0) ->
    (1,1,0,0) at q0 = 0 on Minkowski is ``multi``, dimension 1, represented
    by a point of q0 + t (p1 - p0).  A Euclidean set is exact: ``single``,
    dimension 0, the translation alone.
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


def _cell_starts(g, p0, p1, q0, rmap, tol_abs):
    """One point per non-empty piece of the solution set in the slope cells of F.

    With Y = X - q0, u = p1 - p0 and w_k = q0 - p_k, the length equation is
    the quadric <Y, Y> = <u, u> (F is injective), on which sigma_M(p_k, X) =
    c_k + <Y, w_k> with c_k = (<u, u> + <w_k, w_k>) / 2.  So the two sigma_M
    depend on Y through t = (<Y, w0>, <Y, u>) only (through tau = <Y, u>
    alone where q0 is on the line p0p1, w0 = f u), and in a slope cell of F
    the parallelism equation F(sigma_M(p0, X)) - F(sigma_M(p1, X)) = K is
    linear in t: ``_plane_pieces`` and ``_line_pieces`` give each non-empty
    cell's t = t* + s d over an open range lo < s < hi, or one point (lo = hi).

    Y is written as Y_c(s) + sum_k y_k E_k.  The E_k are a Euclidean-
    orthonormal basis of the kernel of Y -> t, diagonal for eta (<E_a, E_b> =
    lam_a delta_ab, lam ascending), and Y_c(s), affine in s, meets t(s): the
    Euclidean least-norm point moved along every E_k but the last to its
    eta-centre, or, where q0 is on the line and u is not null, the
    eta-projection (tau / <u, u>) u, exact where the division is.  The
    quadric then reads sum lam_k y_k^2 + 2 h y_-1 = <u, u> - <Y_c, Y_c> with
    h = <E_-1, Y_c>, and about its eta-centre sum lam_k z_k^2 = rho(s), a
    quadratic in s: a sphere where rho < 0 (every lam < 0; a point at rho =
    0) or a hyperboloid for any rho (mixed signs).  Where W = span(w0, u)
    (or u) is null, lam_-1 is 0 (within ``_DEGENERATE``): the piece is a
    graph over the other directions where h != 0, and E_-1 is free where
    h = 0.

    ``_piece_points`` picks the point's s, the point of the range nearest q0
    (within the part where rho < -tol_rho for a sphere), and the piece has
    dimension len(E) - 1 (+ 1 over a range) where it holds a surface, 0 at a
    tangent point, 1 on a curve of them (+ 1 along a free direction).  y is
    0 at a tangent point, off the apex on a hyperboloid, the root nearest
    Y_c along E_-1 elsewhere, and u's component along a free E_-1.  The one
    exception: a piece pinned to the jump of the discrete F (sigma_M(p_k, X)
    = 0 exactly) is represented by Y_c where rho = 0, the only point the
    float cone holds, e.g. X = p1 at q0 = p0.  The curves on that jump where
    q0 is off the line p0p1 are not walked.

    Returns the points, their pieces' dimensions and the Jacobian ranks
    there (2 at a smooth point of a 2-surface, else 1), and the number of
    cells examined.
    """
    u = p1 - p0
    w = q0 - np.array([p0, p1])
    uu = float(_mdot(u, u))
    c = 0.5 * (uu + _mdot(w, w))
    # F(l0) - F(l1) = two_a + sigma(p0, q0) - sigma(p1, q0) on the quadric
    K = rmap.two_a + rmap.s_p0q0 - rmap.s_p1q0
    xs, m, xa, ya = _cells(g.deformation)
    b = ya - m * xa  # F(x) = m x + b on each open cell
    tol_rho = tol_abs / float(m.max())
    uu_e = float(u @ u)  # the Euclidean <u, u>
    if not (uu_e >= np.finfo(float).tiny and np.isfinite(c).all()):
        raise SolverFailureError("|p1 - p0|^2 underflows or a squared chart distance "
                                 "overflows: the slope-cell walk cannot place its points")
    U, S, Vt = np.linalg.svd(np.array([w[0], u]) * _ETA)
    line = bool(S[1] <= _DEGENERATE * S[0])
    N = Vt[1:] if line else Vt[2:]  # the kernel of Y -> t
    lam, V = np.linalg.eigh((N * _ETA) @ N.T)
    E = V.T @ N
    null = bool(abs(lam[-1]) <= _DEGENERATE)  # the largest: every other lam is < 0 then
    if line:
        t, d, lo, hi, apex, examined = _line_pieces(g, xs, m, b, c, K, float(w[0] @ u) / uu_e, tol_abs)
    else:
        t, d, lo, hi = _plane_pieces(xs, m, b, c, K)
        apex, examined = np.zeros(len(t), dtype=bool), len(m) ** 2
    # Y_c is the eta-projection onto u where q0 is on the line and u is not
    # null (tau / <u, u> divided: exact where it can be), else the Euclidean
    # least-norm point t @ M, centred along every E but the last
    h = np.zeros((2, len(t)))
    if line and not null:
        P, D = (x / uu * u for x in (t, d))
    else:
        M = (u * _ETA / uu_e)[None] if line else (U / S) @ Vt[:2]
        M -= ((M * _ETA) @ E[:-1].T / lam[:-1]) @ E[:-1]
        P, D = t @ M, d @ M
        h = np.array([t, d]) @ ((M * _ETA) @ E[-1])
    # rho = <u, u> - <Y_c, Y_c> = sum lam y^2 + 2 h y_-1 is A s^2 + B s + C,
    # taken about the eta-centre (+ h^2 / lam) where lam[-1] is not 0
    PD = np.array([P, D])
    gram = np.einsum("ipk,jpk->ijp", PD * _ETA, PD)
    if not null:
        gram -= h[:, None] * h / lam[-1]
    A, B, C = -gram[1, 1], -2.0 * gram[0, 1], uu - gram[0, 0]
    dot, DD = np.einsum("ipk,pk->ip", PD, D)
    inv = np.divide(1.0, DD, out=np.zeros_like(DD), where=DD > 0.0)
    near, reach = -dot * inv, np.sqrt(inv)
    graph = null & (np.abs(h).max(axis=0) > tol_rho)
    hyperboloid = bool(lam[-1] > 0.0) and not null
    s, kind = _piece_points(lo, hi, A, B, C, near, reach, hyperboloid, graph, tol_rho)
    Y = P + s[:, None] * D
    hs = h[0] + s * h[1]
    r = uu - _mdot(Y, Y)
    rho = r if null else r + hs * hs / lam[-1]
    y = np.zeros((len(Y), len(E)))
    if hyperboloid:  # off its apex along E[0]
        y[:, 0] = np.sqrt((np.maximum(-rho, 0.0) + uu_e) / -lam[0])
    elif null:  # the sphere on the other directions takes what it can of r
        y[:, 0] = np.sqrt(np.maximum(np.where(kind == 2, r / lam[0], 0.0), 0.0))
    else:  # a tangent point is the double root
        r = np.where(kind == 2, r, -hs * hs / lam[-1])
    r = r - lam[0] * y[:, 0] ** 2
    # lam y^2 + 2 h y = r along E[-1]: the root nearer Y_c
    q = hs + np.copysign(np.sqrt(np.maximum(hs * hs + lam[-1] * r, 0.0)), hs)
    y[:, -1] = np.where(null & ~graph, E[-1] @ u, np.divide(r, q, out=np.zeros_like(q), where=q != 0.0))
    at_apex = apex & (np.abs(rho) <= tol_rho)
    y[at_apex] = 0.0
    dims = np.where(kind == 2, len(E) - 1 + (lo < hi), (kind == 3) + (null & ~graph))
    keep = kind > 0
    ranks = np.where((dims == 2) & ~at_apex, 2, 1)[keep]
    return (q0 + (Y + y @ E))[keep], dims[keep], ranks, examined


def _plane_pieces(xs, m, b, c, K):
    """Cells (i, j) of F whose line in t = (<Y, w0>, <Y, u>) meets their box.

    In cell (i, j), sigma_M(p0, X) = c0 + t0 in cell i and sigma_M(p1, X) =
    c1 + t0 - t1 in cell j, the parallelism equation is (m_i - m_j) t0 + m_j t1
    = L, and the line t = t* + s (m_j, m_j - m_i) moves the two sigma_M by
    (m_j, m_i) per unit of s.  Returns t*, d and the open range (lo, hi) of s
    of every cell where lo < hi.
    """
    i, j = np.divmod(np.arange(len(m) ** 2), len(m))
    mi, mj = m[i], m[j]
    L = K - b[i] + b[j] - mi * c[0] + mj * c[1]
    t = np.array([mi - mj, mj]) * (L / ((mi - mj) ** 2 + mj * mj))
    o0, o1 = c[0] + t[0], c[1] + t[0] - t[1]  # the two sigma_M at s = 0
    edges = np.concatenate([[-np.inf], xs, [np.inf]])
    lo = np.maximum((edges[i] - o0) / mj, (edges[j] - o1) / mi)
    hi = np.minimum((edges[i + 1] - o0) / mj, (edges[j + 1] - o1) / mi)
    on = lo < hi
    return t.T[on], np.array([mj, mj - mi]).T[on], lo[on], hi[on]


def _line_pieces(g, xs, m, b, c, K, f, tol_abs):
    """The roots tau = <Y, u> of F(c0 + f tau) - F(c1 + (f - 1) tau) = K, q0 = p0 + f u.

    The knots, where a sigma_M sits on a breakpoint of F, split the tau axis
    into open intervals on which the equation is linear.  A knot is a root
    where F itself, read at the breakpoint, meets the equation within
    ``tol_abs``; an interval holds one root strictly inside, with the
    equation off by more than ``tol_abs`` at its ends (a root nearer a knot
    is the knot's), or, where the equation is constant and met, every tau
    of the interval: a 3-dimensional piece.  Returns t = tau*, d, the range
    (lo, hi) of each interval piece (lo = hi = 0 for a root), whether a root
    is pinned to a jump of F, and the number of knots and intervals.
    """
    phi = np.array([f, f - 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        knots = np.unique((xs - c[:, None]) / phi[:, None])
        knots = knots[np.isfinite(knots)]
        lo, hi = np.append(-np.inf, knots), np.append(knots, np.inf)
        mid = np.where(np.isinf(lo), hi - 1.0, np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi)))
    tau = np.append(knots, np.nan_to_num(mid, posinf=0.0))  # the whole axis: tau = 0
    l = c[:, None] + phi[:, None] * tau
    # a knot's sigma_M is its breakpoint up to rounding: put it there
    x = xs[np.abs(l[..., None] - xs).argmin(axis=-1)]
    snap = np.abs(l - x) <= 2.0 ** -50 * (np.abs(c)[:, None] + np.abs(x))
    snap[:, len(knots):] = False
    l = np.where(snap, x, l)
    # the open cells and the breakpoints interleaved: F = ms l + bs on each
    ms, bs = np.zeros(2 * len(xs) + 1), np.zeros(2 * len(xs) + 1)
    ms[::2], bs[::2], bs[1::2] = m, b, g.deformation(xs)
    pos = np.searchsorted(xs, l)
    at = xs[np.minimum(pos, len(xs) - 1)] == l
    k = 2 * pos + at
    slope = ms[k[0]] * phi[0] - ms[k[1]] * phi[1]
    const = ms[k[0]] * c[0] + bs[k[0]] - ms[k[1]] * c[1] - bs[k[1]] - K
    nk = len(knots)
    root = np.abs(slope[:nk] * knots + const[:nk]) <= tol_abs
    a, z, sl, cn = lo, hi, slope[nk:], const[nk:]
    flat = np.abs(sl) <= _DEGENERATE * (ms[k[0, nk:]] * abs(phi[0]) + ms[k[1, nk:]] * abs(phi[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -cn / sl
        inside = (~flat & (a < r) & (r < z) & (np.abs(sl * a + cn) > tol_abs)
                  & (np.abs(sl * z + cn) > tol_abs))
    flat &= np.abs(cn) <= tol_abs
    # a root pinned to a breakpoint where the cells' lines jump
    jump = np.abs((m[1:] - m[:-1]) * xs + b[1:] - b[:-1]) > tol_abs
    pinned = (snap[:, :nk] & jump[np.minimum(pos[:, :nk], len(xs) - 1)]).any(axis=0)
    roots = np.concatenate([knots[root], r[inside]])
    count = len(roots)
    t = np.concatenate([roots, np.zeros(flat.sum())])[:, None]
    d = np.concatenate([np.zeros(count), np.ones(flat.sum())])[:, None]
    lo = np.concatenate([np.zeros(count), a[flat]])
    hi = np.concatenate([np.zeros(count), z[flat]])
    apex = np.concatenate([pinned[root], np.zeros(len(t) - root.sum(), dtype=bool)])
    return t, d, lo, hi, apex, len(tau)


def _piece_points(lo, hi, A, B, C, near, reach, every, graph, tol_rho):
    """(s, kind) of one point per piece over lo < s < hi (s = 0 where lo = hi).

    kind is 2 where the piece holds a surface, 1 at a tangent point, 3 on a
    curve of them (rho = A s^2 + B s + C within tol_rho of 0 along the
    range), 0 where it is empty.  s is the point of the range nearest
    ``near``, a quarter of the range or of ``reach`` in from its ends, where
    that point is on the piece: wherever ``every`` s carries points (a
    hyperboloid) or rho < -tol_rho there.  Otherwise ``_sphere_s`` searches
    the range; a ``graph``, on which every s carries points too, keeps the
    nearest point unless a part of its range has rho < 0.
    """
    margin = 0.25 * np.minimum(hi - lo, reach)
    s = np.minimum(np.maximum(near, lo + margin), hi - margin)
    kind = np.where(every | ((A * s + B) * s + C < -tol_rho), 2, 0)
    for p in np.flatnonzero(kind == 0).tolist():
        x, kind[p] = _sphere_s(*(float(v[p]) for v in (lo, hi, A, B, C, near, reach, s)), tol_rho)
        s[p] = x if kind[p] or not graph[p] else s[p]
    kind[graph] = 2
    return s, kind


def _sphere_s(lo, hi, A, B, C, near, reach, x, tol_rho):
    """(s, kind) of a sphere whose nearest point x has rho(x) >= -tol_rho.

    s is the point of the part of the range with rho < -tol_rho nearest
    ``near`` (kind 2), else x on a curve of tangent points (3), else the
    minimum of rho at a tangent point (1; a minimum on the upper end of the
    range is the next cell's), else NaN (0, empty).
    """
    if lo == hi:
        return 0.0, int(C <= tol_rho)
    cuts = [lo, *sorted(r for r in _quadratic_roots(A, B, C + tol_rho) if lo < r < hi), hi]
    on = [p for p in (_inner(a, z, near, reach) for a, z in zip(cuts, cuts[1:]))
          if (A * p + B) * p + C < -tol_rho]
    if on:
        return min(on, key=lambda p: abs(p - near)), 2
    if abs((A * x + B) * x + C) <= tol_rho and (abs(2.0 * A * x + B) + abs(A) * reach) * reach <= tol_rho:
        return x, 3
    x = -B / (2.0 * A) if A > 0.0 else math.nan
    return (x, 1) if lo <= x < hi and abs((A * x + B) * x + C) <= tol_rho else (math.nan, 0)


def _inner(lo, hi, x, reach):
    """x moved into lo < x < hi, at least a quarter of the range or of reach from its ends."""
    margin = 0.25 * min(hi - lo, reach)
    return min(max(x, lo + margin), hi - margin)


def _quadratic_roots(A, B, C):
    """Real roots of A s^2 + B s + C = 0, by the stable formula."""
    if A == 0.0:
        return [-C / B] if B else []
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return [q / A, C / q] if q else [0.0]


def solve_equivalent(g: Geometry, p0, p1, q0, cfg: SolverConfig | None = None) -> SolutionSet:
    """Find end points Q1 such that the vector Q0Q1 is equivalent to P0P1.

    In the Euclidean geometry, with Y = Q1 - Q0 and u = P1 - P0, the length
    equation is |Y|^2 = |u|^2 and the parallelism equation <Y, u> = |u|^2,
    so Cauchy-Schwarz equality forces Y = u: the result is the translation
    Q0 + u, ``single``, found without Newton.  It is still checked by the
    pairwise test's residuals, and a translation that fails them at ``tol``
    in float arithmetic raises ``SolverFailureError``.

    On the Minkowski substrate ``_cell_starts`` walks the slope cells of F
    and gives one point per non-empty piece of the solution set with the
    piece's dimension.  One damped Newton pass refines the points whose
    residual rounds above ``tol``; the representatives are the points that
    meet ``tol``, sorted lexicographically.  The reported residuals are the
    rows Newton computed at them, equal to ``is_equivalent``'s (r_par,
    r_len) of P0P1 against Q0Q1 bit for bit:

    * ``zero``   -- no solution found (an empty set is a valid outcome),
    * ``single`` -- one representative, an isolated root,
    * ``multi``  -- several representatives or a piece of dimension 1 to 3.
    """
    cfg = SolverConfig._given(cfg)
    p0 = as_point(p0, dim=g.dim)
    p1 = as_point(p1, dim=g.dim)
    q0 = as_point(q0, dim=g.dim)
    if np.array_equal(p0, p1):
        raise InvalidInputError("p0 and p1 must differ")

    rmap = _ResidualMap(g, p0, p1, q0)
    tol_abs = cfg.tol * max(1.0, abs(rmap.two_a))
    if not g.has_minkowski_substrate:
        X = q0 + (p1 - p0)
        [(r_par, r_len)] = rmap(X[None]).tolist()
        if not (abs(r_par) <= tol_abs and abs(r_len) <= tol_abs):
            raise SolverFailureError(
                "the translation q0 + (p1 - p0), this geometry's one solution, fails the "
                "equivalence test at tol in float arithmetic")
        return SolutionSet([X], "single", 0, [(r_par, r_len)], SolverDiagnostics(0, 0, 1, 0, 0, 0, 0, 0))

    starts, dims, ranks, examined = _cell_starts(g, p0, p1, q0, rmap, tol_abs)
    X, res, conv, stalled, doubled, iterations = _newton(rmap, starts, tol_abs, cfg.max_iter)
    counts = (iterations, int(stalled.sum()), doubled, examined, len(starts))
    if not conv.any():
        if g.kind == "minkowski":
            raise SolverFailureError(
                "no start converged although this geometry has an analytic solution")
        return SolutionSet([], "zero", 0, [], SolverDiagnostics(len(starts), 0, 0, *counts))

    idx = np.flatnonzero(conv)[np.lexsort(X[conv].T[::-1])]
    reps, res, dims, ranks = X[idx], res[idx], dims[idx], ranks[idx]
    variance = "single" if len(reps) == 1 and dims[0] == 0 else "multi"
    diags = SolverDiagnostics(len(starts), len(idx), int(ranks[np.argmax(dims)]), *counts)
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
