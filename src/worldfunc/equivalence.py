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
P0), and ``solve_equivalent`` returns it in closed form, checked by a
residual row whose six sigma terms are in-order sums in Python floats (one
stacked sigma call from 8 coordinates, where numpy sums pairwise), bit for
bit ``is_equivalent``'s.  On the Minkowski substrate F is piecewise linear,
so in each slope cell of F the equations are a quadric cut by a
hyperplane: the solve walks every cell (``_cell_starts``)
and takes one exact point per non-empty piece of the set with the piece's
dimension, 0 to 3, and keeps the points whose residual row meets ``tol``;
``find_intransitivity_witness`` builds broken-transitivity
witnesses from one exact null-shift template, confirmed by the batched residual
kernel that also checks skeleton and chain-link equivalence; the segment/tube
operations expose the thickness that straight lines acquire under deformation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FamilyUndefinedError,
    InvalidDirectionError,
    InvalidInputError,
    SolverFailureError,
    WorldFunctionError,
)
from .geometry import (
    Geometry,
    GeomVector,
    _ETA,
    _IN_ORDER,
    _Config,
    _cells,
    _euclidean_sigma,
    _finite,
    _integral,
    _mdot,
    as_points,
    scalar_product,
    sigma,
    squared_length,
    triangle_defect,
)

# candidate triples per block of the witness search: its memory is independent of the budget
_WITNESS_BLOCK = 1024
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
    s_b = sigma(g, b0, b1)
    r_par, r_len = _residual_row(two_a, sigma(g, a1, b0), sigma(g, a0, b0),
                                 sigma(g, a0, b1), sigma(g, a1, b1), s_b)
    scale = np.maximum(1.0, np.maximum(np.abs(two_a), np.abs(2.0 * s_b)))
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

    ``tol`` is the one setting a solve reads.  ``starts``, ``max_iter`` and
    ``seed`` are accepted, checked and read by nothing: the benchmark's calls
    pass them, and they go with its next revision.
    """

    starts: int = 256
    max_iter: int = 100
    tol: float = 1e-9
    seed: int = 0

    _MINIMUMS = {"starts": 1, "max_iter": 0, "tol": 0.0, "seed": 0}


@dataclass(frozen=True)
class SolverDiagnostics:
    """What the solver did.

    A Euclidean solve walks nothing: it reports 0 starts, converged rows
    and cells, and rank 1, the rank of the Jacobian at the translation,
    whose parallelism row vanishes there.  On the Minkowski substrate
    ``cells_examined`` counts the cell pairs of F walked (the knots and
    intervals of tau where q0 is on the line p0p1) and ``starts_attempted``
    = ``cells_nonempty`` the walk's points, one per non-empty piece:
    ``starts_attempted - converged_count`` counts the pieces whose point's
    residual row rounds above ``tol``.  ``jacobian_rank`` is the walk's rank
    at the first representative of the highest dimension: 2 at a smooth
    point of a 2-surface, else 1.
    """

    starts_attempted: int
    converged_count: int
    jacobian_rank: int
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


def _residual_row(two_a, s_p1q0, s_p0q0, s_p0x, s_p1x, s_q0x):
    """(r_par, r_len) of P0P1 against Q0X from its sigma terms, floats or arrays.

    The one place the row is assembled: r_par = (a.b) - (|a|^2 + |b|^2) / 2
    with (a.b) = sigma(p0, x) + sigma(p1, q0) - sigma(p0, q0) - sigma(p1, x),
    r_len = |a|^2 - |b|^2, two_a = |a|^2 = 2 sigma(p0, p1).
    """
    two_b = 2.0 * s_q0x
    return (((s_p0x + s_p1q0) - s_p0q0) - s_p1x) - 0.5 * (two_a + two_b), two_a - two_b


def _cell_starts(g, q0, diffs, sq, uu_e, K, tol_abs):
    """One point per non-empty piece of the solution set in the slope cells of F.

    With Y = X - q0, u = p1 - p0 and w_k = q0 - p_k (the rows of ``diffs``,
    whose Minkowski squares are ``sq`` and Euclidean |u|^2 is ``uu_e``), the
    length equation is the quadric <Y, Y> = <u, u> (F is injective), on which
    sigma_M(p_k, X) = c_k + <Y, w_k> with c_k = (<u, u> + <w_k, w_k>) / 2.  So
    the two sigma_M depend on Y through t = (<Y, w0>, <Y, u>) only (through
    tau = <Y, u> alone where q0 is on the line p0p1, w0 = f u), and in a slope
    cell of F the parallelism equation F(sigma_M(p0, X)) - F(sigma_M(p1, X)) =
    K, with K = 2 sigma(p0, p1) + sigma(p0, q0) - sigma(p1, q0), is linear in
    t: ``_plane_pieces`` and ``_line_pieces`` give each non-empty cell's t =
    t* + s d over an open range lo < s < hi, or one point (lo = hi).

    Y is written as Y_c(s) + sum_k y_k E_k, the E_k a Euclidean-orthonormal
    basis of the kernel of Y -> t that eta = 2 e0 e0^T - I diagonalises:
    every E_k but the last spatial (lam = -1), the last the unit projection
    of e0, in closed form off the line (``_plane_frame``) and on it
    (``_line_frame``).  Y_c(s), affine in s, meets t(s): the Euclidean
    least-norm point, or, where q0 is on the line and u is not null, the
    eta-projection (tau / <u, u>) u, exact where the division is.  Y_c(s) =
    P + s D and h(s) = <E_-1, Y_c(s)> = h0 + s h1 come for all pieces from
    one product with the map, and each piece is then one pass in Python
    floats (``_piece``): its quadric, its point's s, its point, dimension
    and Jacobian rank.

    q0 is a list of 4 floats.  Returns the points as an (n, 4) array, their
    pieces' dimensions and the Jacobian ranks there as lists, and the number
    of cells examined.
    """
    u, w0 = diffs[0], diffs[1]
    uu, ww0, ww1 = sq
    c0, c1 = 0.5 * (uu + ww0), 0.5 * (uu + ww1)
    pairs = _cell_pairs(g.deformation)
    frame = _plane_frame(w0.tolist(), u.tolist())
    apex = itertools.repeat(False)
    if frame is None:  # q0 on the line p0p1
        E, lam1 = _line_frame(u.tolist()), -uu / uu_e
        null = abs(lam1) <= _DEGENERATE
        xs, m, xa, ya = _cells(g.deformation)
        t, d, lo, hi, apex, examined = _line_pieces(g, xs, m, pairs.b, np.array([c0, c1]), K,
                                                    float(w0 @ u) / uu_e, tol_abs)
        td = np.array([t, d])
        if null:  # the Euclidean least-norm point, h = <E_-1, .> as a fifth column
            M = (u * _ETA / uu_e).tolist()
            PDh = td @ np.array([M + [_mink(M, E[-1])]])
        else:  # the eta-projection onto u (tau / <u, u> divided: exact where it can be), h = 0
            PDh = np.zeros(td.shape[:2] + (5,))
            PDh[..., :4] = td / uu * u
        apex = apex.tolist()
    else:
        lam1, E, Mh = frame
        null = abs(lam1) <= _DEGENERATE
        td, lo, hi = _plane_pieces(pairs, c0, c1, K)
        PDh = td @ Mh  # (P, D) of every piece and h = <E_-1, (P, D)> as a fifth column
        examined = len(pairs.m_i)
    free_y = float(np.dot(E[-1], u)) if null else 0.0
    consts = (lam1, E, null, lam1 > 0.0 and not null, uu, uu_e, free_y,
              tol_abs / pairs.m_max, q0)
    points, dims, ranks = [], [], []
    for row in zip(*PDh.tolist(), lo.tolist(), hi.tolist(), apex):
        if piece := _piece(*row, consts):
            points.append(piece[0])
            dims.append(piece[1])
            ranks.append(piece[2])
    return np.array(points).reshape(-1, 4), dims, ranks, examined


def _piece(Ph, Dh, lo, hi, apex, consts):
    """(X, dimension, Jacobian rank) of one piece of the walk, or None where it is empty.

    Ph, Dh: (P, h0) and (D, h1) of Y_c(s) = P + s D and h(s) = h0 + s h1, 5
    floats each; lo < s < hi the piece's range (lo = hi: one s); apex: the
    piece is pinned to a jump of F.  consts: lam1 = <E_-1, E_-1>, E, whether
    W (or u) is null (lam1 = 0 within ``_DEGENERATE``), whether the quadric
    is a hyperboloid, <u, u>, |u|^2, <E_-1, u>_Euclidean, tol_rho and q0.

    The quadric reads lam1 y_-1^2 + 2 h y_-1 - sum y_k^2 = <u, u> - <Y_c,
    Y_c>, about its eta-centre sum lam_k z_k^2 = rho(s) = A s^2 + B s + C: a
    sphere where rho < 0 (lam1 < 0; a point at rho = 0) or a hyperboloid
    (lam1 > 0).  Where W is null the piece is a graph over the other
    directions where h != 0 on its range, and E_-1 is free where h = 0 there
    (within tol_rho).  ``_piece_s`` picks the point's s, and the piece has
    dimension len(E) - 1 (+ 1 over a range) where it holds a surface, 0 at a
    tangent point, 1 on a curve of them (+ 1 along a free direction).  A
    graph with no part where rho < -tol_rho takes the s whose point of the
    graph is nearest q0 (``_graph_s``).  y is off the apex along E[0] on a
    hyperboloid; along E_-1, the double root -h / lam1 at a tangent point,
    u's component where E_-1 is free, else the root nearer Y_c (of two
    alike, the one nearer q0).  A piece pinned to the jump of the discrete F
    (sigma_M(p_k, X) = 0 exactly) is represented by Y_c where rho = 0, the
    only point the float cone holds, e.g. X = p1 at q0 = p0, with rank 1;
    the curves on that jump where q0 is off the line p0p1 are not walked.
    The rank is 2 at a smooth point of a 2-surface, else 1.
    """
    lam1, E, null, every, uu, uu_e, free_y, tol_rho, q0 = consts
    P0, P1, P2, P3, h0 = Ph
    D0, D1, D2, D3, h1 = Dh
    # rho = <u, u> - <Y_c, Y_c> (+ h^2 / lam1 where lam1 is not 0): A s^2 + B s + C
    pp = P0 * P0 - P1 * P1 - P2 * P2 - P3 * P3
    pd = P0 * D0 - P1 * D1 - P2 * D2 - P3 * D3
    dd = D0 * D0 - D1 * D1 - D2 * D2 - D3 * D3
    if not null:
        pp -= h0 * h0 / lam1
        pd -= h0 * h1 / lam1
        dd -= h1 * h1 / lam1
    A, B, C = -dd, -2.0 * pd, uu - pp
    DD = D0 * D0 + D1 * D1 + D2 * D2 + D3 * D3
    inv = 1.0 / DD if DD > 0.0 else 0.0
    near, reach = -(P0 * D0 + P1 * D1 + P2 * D2 + P3 * D3) * inv, math.sqrt(inv)
    s, kind = _piece_s(lo, hi, A, B, C, near, reach, every, tol_rho)
    free = False
    if null:  # h at the ends of the range (0 * inf is h0): a graph where it is not 0
        if abs(h0 + (lo * h1 if h1 else 0.0)) > tol_rho or abs(h0 + (hi * h1 if h1 else 0.0)) > tol_rho:
            if kind != 2:  # no part of the range has rho < -tol_rho
                s = _graph_s((P0, P1, P2, P3), (D0, D1, D2, D3), h0, h1, lo, hi, A, B, C, near,
                             reach, s, E[-1])
            kind = 2
        else:
            free = True
    if not kind:
        return None
    Y = [P0 + s * D0, P1 + s * D1, P2 + s * D2, P3 + s * D3]
    hs = h0 + s * h1
    r = uu - (Y[0] * Y[0] - (Y[1] * Y[1] + Y[2] * Y[2] + Y[3] * Y[3]))
    rho = r if null else r + hs * hs / lam1
    y0 = 0.0
    if every:  # off its apex along E[0]
        y0 = math.sqrt(max(-rho, 0.0) + uu_e)
    elif null and kind == 2:  # the sphere on the other directions takes what it can of r
        y0 = math.sqrt(max(-r, 0.0))
    r += y0 * y0
    # lam1 y^2 + 2 h y = r along E[-1]: the root nearer Y_c (of two alike, h = 0,
    # the one nearer q0), the double root at a tangent point
    e, q = E[-1], math.sqrt(max(hs * hs + lam1 * r, 0.0))
    q = hs + math.copysign(q, hs or -lam1 * (Y[0] * e[0] + Y[1] * e[1] + Y[2] * e[2] + Y[3] * e[3]))
    y1 = free_y if free else ((r / q if q else 0.0) if kind == 2 else -hs / lam1)
    smooth = True
    if apex and abs(rho) <= tol_rho:
        y0 = y1 = 0.0
        smooth = False
    dim = len(E) - 1 + (lo < hi) if kind == 2 else (kind == 3) + free
    X = [x + (y + (y0 * a + y1 * b)) for x, y, a, b in zip(q0, Y, E[0], E[-1])]
    return X, dim, 2 if dim == 2 and smooth else 1


def _plane_frame(w0, u):
    """(lam1, E, Mh) of the map Y -> t = (<Y, w0>, <Y, u>) in closed form;
    None where it has rank 1 (q0 on the line p0p1).  w0, u: lists of 4 floats.

    The rows a = eta w0 and b = eta u, scaled by one power of 2, give the six
    2 x 2 minors m_ij = a_i b_j - a_j b_i, whose squares sum to the Gram
    determinant without its cancellation: the rank is 1 where sqrt(sum m^2)
    <= _DEGENERATE (|a|^2 + |b|^2).  Otherwise the largest row e1 of the
    Hodge dual of m and its image e2 = dual(m) e1, normalised, span the
    kernel; E (2 x 4) is them rotated by their time components, E[0]'s last
    component >= 0 (a hyperboloid's point lies along E[0]).  Mh is the
    least-norm map t -> Y, rows (m b, -m a) / sum m^2, and h = <., E[1]>.
    """
    a = [w0[0], -w0[1], -w0[2], -w0[3]]
    b = [u[0], -u[1], -u[2], -u[3]]
    scale = math.ldexp(1.0, -math.frexp(max(map(abs, a + b)))[1])
    a0, a1, a2, a3 = [x * scale for x in a]
    b0, b1, b2, b3 = [x * scale for x in b]
    m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    det = m01 * m01 + m02 * m02 + m03 * m03 + m12 * m12 + m13 * m13 + m23 * m23
    if math.sqrt(det) <= _DEGENERATE * (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
                                        + b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3):
        return None
    dual = ((0.0, m23, -m13, m12), (-m23, 0.0, m03, -m02),
            (m13, -m03, 0.0, m01), (-m12, m02, -m01, 0.0))
    e1 = max(dual, key=lambda row: row[0] * row[0] + row[1] * row[1] + row[2] * row[2] + row[3] * row[3])
    e1 = _unit(e1)
    e2 = _unit([x * e1[0] + y * e1[1] + z * e1[2] + w * e1[3] for x, y, z, w in dual])
    k = max(abs(e1[0]), abs(e2[0]))  # the time components may be subnormal: divided by k first
    v_lo, v_hi = e1, e2
    if k:  # else the kernel is spatial
        c, s = e1[0] / k, e2[0] / k
        v_lo = _unit([0.0] + [c * y - s * x for x, y in zip(e1[1:], e2[1:])])
        v_hi = _unit([c * x + s * y for x, y in zip(e1, e2)])
    if v_lo[3] < 0.0:
        v_lo = [-x for x in v_lo]
    inv = scale / det
    rows = ([(m01 * b1 + m02 * b2 + m03 * b3) * inv, (m12 * b2 + m13 * b3 - m01 * b0) * inv,
             (m23 * b3 - m02 * b0 - m12 * b1) * inv, -(m03 * b0 + m13 * b1 + m23 * b2) * inv],
            [-(m01 * a1 + m02 * a2 + m03 * a3) * inv, (m01 * a0 - m12 * a2 - m13 * a3) * inv,
             (m02 * a0 + m12 * a1 - m23 * a3) * inv, (m03 * a0 + m13 * a1 + m23 * a2) * inv])
    return _mink(v_hi, v_hi), [v_lo, v_hi], np.array([row + [_mink(row, v_hi)] for row in rows])


def _line_frame(u):
    """E (3 x 4) of the kernel of Y -> <Y, u> in closed form; u: 4 floats.

    E[0], E[1]: spatial unit vectors across u's spatial part s n (Duff et al.
    2017, "Building an orthonormal basis, revisited"; n = e3 where s = 0),
    E[2] = (s, u0 n) / |u|, of eta-square -<u, u> / |u|^2.
    """
    u0, u1, u2, u3 = u
    s = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
    n1, n2, n3 = (u1 / s, u2 / s, u3 / s) if s else (0.0, 0.0, 1.0)
    sign = math.copysign(1.0, n3)
    a = -1.0 / (sign + n3)
    b = n1 * n2 * a
    return [[0.0, 1.0 + sign * n1 * n1 * a, sign * b, -sign * n1],
            [0.0, b, sign + n2 * n2 * a, -n2],
            _unit([s, u0 * n1, u0 * n2, u0 * n3])]


def _mink(x, y):
    """<x, y> of two 4-sequences of floats."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]


def _unit(x):
    n = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    return [v / n for v in x]


class _CellPairs(NamedTuple):
    """The constants of ``_plane_pieces`` over the pairs (i, j) of F's cells, i = p // n, j = p % n."""
    b: np.ndarray  # F(x) = m x + b on each open cell
    b_i: np.ndarray
    b_j: np.ndarray
    m_i: np.ndarray
    m_j: np.ndarray
    norm: np.ndarray  # (m_i - m_j)^2 + m_j^2
    rows: np.ndarray  # rows t* / (L / norm) = (m_i - m_j, m_j), d = (m_j, m_j - m_i), and two to fill
    edges: np.ndarray  # (lower, upper) x (cell i, cell j)
    slopes: np.ndarray  # (m_j, m_i): the moves of the two sigma_M per unit of s
    m_max: float


@functools.lru_cache(maxsize=16)
def _cell_pairs(F):
    xs, m, xa, ya = _cells(F)
    b = ya - m * xa
    i, j = np.divmod(np.arange(len(m) ** 2), len(m))
    mi, mj = m[i], m[j]
    edges = np.concatenate([[-np.inf], xs, [np.inf]])
    rows = np.zeros((6, len(i)))
    rows[:4] = mi - mj, mj, mj, mj - mi
    return _CellPairs(b, b[i], b[j], mi, mj, (mi - mj) ** 2 + mj * mj, rows,
                      np.array([[edges[i], edges[j]], [edges[i + 1], edges[j + 1]]]),
                      np.array([mj, mi]), float(m.max()))


def _plane_pieces(pairs, c0, c1, K):
    """Cells (i, j) of F whose line in t = (<Y, w0>, <Y, u>) meets their box.

    In cell (i, j), sigma_M(p0, X) = c0 + t0 in cell i and sigma_M(p1, X) =
    c1 + t0 - t1 in cell j, the parallelism equation is (m_i - m_j) t0 + m_j t1
    = L, and the line t = t* + s (m_j, m_j - m_i) moves the two sigma_M by
    (m_j, m_i) per unit of s.  Returns (t*, d) of every cell where lo < hi as
    one (2, cells, 2) array, and the open range (lo, hi) of s.
    """
    L = K - pairs.b_i + pairs.b_j - pairs.m_i * c0 + pairs.m_j * c1
    rows = pairs.rows.copy()
    rows[:2] *= L / pairs.norm  # t*
    o = rows[0] + np.array([[c0], [c1]])
    o[1] -= rows[1]  # the two sigma_M at s = 0
    ends = (pairs.edges - o) / pairs.slopes
    np.maximum(ends[0, 0], ends[0, 1], out=rows[4])
    np.minimum(ends[1, 0], ends[1, 1], out=rows[5])
    rows = rows[:, rows[4] < rows[5]]
    return rows[:4].reshape(2, 2, -1).transpose(0, 2, 1), rows[4], rows[5]


# offsets 2^j from a graph's pole at which _graph_s measures its points
_GRAPH_STEPS = np.ldexp(1.0, np.arange(-40, 41))


def _graph_s(P, D, h0, h1, lo, hi, A, B, C, near, reach, x, e):
    """The s of a graph piece whose point of the graph is nearest q0.

    Where W is null and rho = r = A s^2 + B s + C > 0 on the whole range, the
    point at s is Y_c(s) + r / (2 h(s)) E_-1 (Y_c = P + s D, h = h0 + s h1,
    E_-1 = e), far from q0 near the pole h = 0 and far again for large s.
    Measured at the nearest point of the range to ``near``, at ``x`` (a
    tangent point or a curve's point of ``_piece_s``, NaN for none) and at
    2^-40 ... 2^40 on both sides of the pole (or of the nearest point where h
    is constant), each but x a quarter of the range or of ``reach`` in from
    its ends, the nearest of those points is taken.
    """
    margin = 0.25 * min(hi - lo, reach)
    s0 = min(max(near, lo + margin), hi - margin)
    pole = -h0 / h1 if h1 else s0
    s = np.concatenate([[s0], pole + _GRAPH_STEPS, pole - _GRAPH_STEPS])
    s = np.concatenate([[x], np.minimum(np.maximum(s, lo + margin), hi - margin)])
    with np.errstate(divide="ignore", invalid="ignore"):
        y = ((A * s + B) * s + C) / (2.0 * (h0 + s * h1))
        Z = np.add(P, s[:, None] * D) + y[:, None] * np.asarray(e)
        dist = np.where(np.isfinite(Z).all(axis=-1), np.einsum("...k,...k->...", Z, Z), np.inf)
    return float(s[dist.argmin()])


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


def _piece_s(lo, hi, A, B, C, near, reach, every, tol_rho):
    """(s, kind) of a piece's point over lo < s < hi (s = 0 where lo = hi).

    kind is 2 where the piece holds a surface, 1 at a tangent point, 3 on a
    curve of them (rho = A s^2 + B s + C within tol_rho of 0 along the
    range), 0 where it is empty (s NaN).  s is the point of the range nearest
    ``near``, a quarter of the range or of ``reach`` in from its ends, where
    that point is on the piece: wherever ``every`` s carries points (a
    hyperboloid) or rho < -tol_rho there.  Otherwise s is the point of the
    part of the range with rho < -tol_rho nearest ``near`` (kind 2), else
    that first point on a curve of tangent points (3), else the minimum of
    rho at a tangent point (1; a minimum on the upper end of the range is
    the next cell's).
    """
    x = _inner(lo, hi, near, reach)
    if every or (A * x + B) * x + C < -tol_rho:
        return x, 2
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


# rows of (p0, p1, q0, X) paired in a Euclidean solve's one sigma call from 8
# coordinates, where numpy's sums are pairwise and Python's in-order sums
# would differ in their last bits: the fixed terms sigma(p0, p1), (p1, q0),
# (p0, q0), then (p0, X), (p1, X), (q0, X)
_TRANSLATION_PAIRS = np.array([[0, 1, 0, 0, 1, 2], [1, 2, 2, 3, 3, 3]])
_TRANSLATION_DIAGNOSTICS = SolverDiagnostics(0, 0, 1, 0, 0)
# rows minuend, subtrahend of the walk's differences u = p1 - p0, w0 = q0 - p0, w1 = q0 - p1
_WALK_ROWS = np.array([[1, 2, 2], [0, 0, 1]])
_TINY = np.finfo(float).tiny


def solve_equivalent(g: Geometry, p0, p1, q0, cfg: SolverConfig | None = None) -> SolutionSet:
    """Find end points Q1 such that the vector Q0Q1 is equivalent to P0P1.

    In the Euclidean geometry, with Y = Q1 - Q0 and u = P1 - P0, the length
    equation is |Y|^2 = |u|^2 and the parallelism equation <Y, u> = |u|^2,
    so Cauchy-Schwarz equality forces Y = u: the result is the translation
    Q0 + u, ``single``, in closed form.  It is still checked by the
    pairwise test: its residual row comes from the sigma terms of the six
    pairs of p0, p1, q0 and Q0 + u, bit for bit ``is_equivalent``'s, and a
    translation that fails it at ``tol`` in float arithmetic, an overflow
    included, raises ``SolverFailureError`` without a numpy warning.  Below 8
    coordinates the terms are sums in Python floats in numpy's order
    (``_euclidean_sigma``); from 8 up numpy sums pairwise, so they come from
    one stacked sigma call.  The points are checked as one stacked array
    (``as_points``); a malformed one raises ``as_point``'s error.

    On the Minkowski substrate ``_cell_starts`` walks the slope cells of F
    and gives one point per non-empty piece of the solution set with the
    piece's dimension.  The three fixed sigma terms are F of half the
    Minkowski squares of u, q0 - p0 and q0 - p1, the walk's own products and
    bit for bit sigma's; they set the walk's parallelism constant K, and
    with the solve's one sigma call, at the walk's points, they give the
    points' residual rows (``_residual_row``).  A squared chart distance or
    a sigma term that overflows, or a |u|^2 that underflows, raises
    ``SolverFailureError`` without a numpy warning.  The
    representatives are the points whose row meets ``tol``, sorted
    lexicographically, and the reported residuals are those rows,
    equal to ``is_equivalent``'s (r_par, r_len) of P0P1 against Q0Q1 bit
    for bit.  A piece lying wholly far from q0, where that rounding exceeds
    ``tol``, is dropped (``converged_count`` < ``starts_attempted``):

    * ``zero``   -- no solution found (an empty set is a valid outcome),
    * ``single`` -- one representative, an isolated root,
    * ``multi``  -- several representatives or a piece of dimension 1 to 3.
    """
    cfg = SolverConfig._given(cfg)
    points = as_points(g.dim, p0, p1, q0)
    p0, p1, q0 = points.tolist()
    if p0 == p1:  # -0.0 == 0.0 included
        raise InvalidInputError("p0 and p1 must differ")

    if not g.has_minkowski_substrate:
        if g.dim < _IN_ORDER:
            X = list(map(operator.add, q0, map(operator.sub, p1, p0)))  # q0 + (p1 - p0)
            s_p0p1, *terms = map(_euclidean_sigma, (p0, p1, p0, p0, p1, q0), (p1, q0, q0, X, X, X))
            X = np.array(X)
        else:  # summed pairwise: sigma's own bits; an overflow is refused below, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                P = points.take([0, 1, 2, 2], axis=0)
                P[3] += P[1] - P[0]  # rows p0, p1, q0, X = q0 + (p1 - p0)
                X = P[3]
                s_p0p1, *terms = sigma(g, *P.take(_TRANSLATION_PAIRS, axis=0)).tolist()
        two_a = 2.0 * s_p0p1
        r_par, r_len = _residual_row(two_a, *terms)
        tol_abs = cfg.tol * max(1.0, abs(two_a))
        if not (abs(r_par) <= tol_abs and abs(r_len) <= tol_abs):
            raise SolverFailureError(
                "the translation q0 + (p1 - p0), this geometry's one solution, fails the "
                "equivalence test at tol in float arithmetic")
        return SolutionSet([X], "single", 0, [(r_par, r_len)], _TRANSLATION_DIAGNOSTICS)

    # u = p1 - p0 and w_k = q0 - p_k, their Minkowski squares, and F of half
    # those: sigma(p0, p1), sigma(p0, q0) and sigma(p1, q0) bit for bit, as a
    # negated difference squares alike.  An overflow raises without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.subtract(*points[_WALK_ROWS])
        sq = _mdot(diffs, diffs)
        s_p0p1, s_p0q0, s_p1q0 = g.deformation(0.5 * sq).tolist()
        uu_e = float(diffs[0] @ diffs[0])
    sq = sq.tolist()
    if not (math.isfinite(uu_e) and uu_e >= _TINY
            and all(map(math.isfinite, [*sq, 0.5 * (sq[0] + sq[1]), 0.5 * (sq[0] + sq[2]),
                                        s_p0p1, s_p0q0, s_p1q0]))):
        raise SolverFailureError("|p1 - p0|^2 underflows or a squared chart distance "
                                 "overflows: the slope-cell walk cannot place its points")
    two_a = 2.0 * s_p0p1
    tol_abs = cfg.tol * max(1.0, abs(two_a))
    X, dims, ranks, examined = _cell_starts(g, q0, diffs, sq, uu_e, two_a + s_p0q0 - s_p1q0, tol_abs)
    r_par, r_len = _residual_row(two_a, s_p1q0, s_p0q0, *sigma(g, points[:, None], X[None]))
    rows = list(zip(r_par.tolist(), r_len.tolist()))
    keys = X.tolist()
    idx = sorted((i for i, (a, b) in enumerate(rows) if abs(a) <= tol_abs and abs(b) <= tol_abs),
                 key=keys.__getitem__)
    if not idx:
        if g.kind == "minkowski":
            raise SolverFailureError(
                "no point of the walk met tol although this geometry has an analytic solution")
        return SolutionSet([], "zero", 0, [], SolverDiagnostics(len(X), 0, 0, examined, len(X)))

    dims = [dims[i] for i in idx]
    top = max(dims)
    variance = "single" if len(idx) == 1 and top == 0 else "multi"
    diags = SolverDiagnostics(len(X), len(idx), ranks[idx[dims.index(top)]], examined, len(X))
    return SolutionSet(list(X[idx]), variance, top, [rows[i] for i in idx], diags)


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
    and up to ``budget`` are tested: one first, which under the default
    ``tol`` is a witness, then ``_WITNESS_BLOCK`` per batched residual call;
    the first witness in draw order is returned, whatever the block size.
    In the Euclidean geometry equivalence is translation (``solve_equivalent``),
    which is transitive: None, with nothing drawn or tested.
    """
    budget = _integral("budget", budget, 0)
    seed = _integral("seed", seed, 0)
    _finite("tol", tol, 0.0)
    if not g.has_minkowski_substrate:
        return None
    rng = np.random.default_rng(seed)
    start, block = 0, 1
    while start < budget:
        o, e, a1, c1 = _witness_block(rng, min(block, budget - start))
        hit = (_equivalence_residuals(g, o, a1, o, e, tol)[0]
               & _equivalence_residuals(g, o, e, o, c1, tol)[0]
               & ~_equivalence_residuals(g, o, a1, o, c1, tol)[0])
        if hit.any():
            i = int(np.argmax(hit))
            return GeomVector(o[i], a1[i]), GeomVector(o[i], e[i]), GeomVector(o[i], c1[i])
        start += len(o)
        block = _WITNESS_BLOCK
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
    p0, p1, r = as_points(g.dim, p0, p1, r)
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

    ``radii[s, d]`` is the root of the triangle defect along direction d at
    station s in the first in-domain cell interval of the ray whose ends differ
    in sign (0 where the station's base is already on the segment), NaN where
    ``sample_segment_tube`` brackets none; an earlier interval whose ends are
    both negative may hold two roots and is not searched.  ``profile[s]``
    averages the directions that found one.  A station where no direction did
    is empty: its profile is NaN and it has no points.  ``points`` holds rows
    (t, r, coords...) of sampled members, t being the chart arc length of the
    station from p0.  ``rays_without_crossing`` counts the NaN radii and
    ``empty_stations`` the empty stations (192 and 12 on the README tube, where
    the defect only jumps at F's breakpoint).
    """

    fractions: np.ndarray
    arc_positions: np.ndarray
    base_points: np.ndarray
    radii: np.ndarray
    profile: np.ndarray
    points: np.ndarray
    empty_stations: int
    rays_without_crossing: int


def sample_segment_tube(g: Geometry, p0, p1, cfg: TubeSamplerConfig | None = None) -> TubeSample:
    """Sample the segment between p0 and p1 as a tube.

    Each station b sends rays b + r d, 0 <= r <= max_radius, along transverse
    chart directions d (seeded, orthogonal to the segment).  On a ray sigma_M(p0, .)
    and sigma_M(., p1) are quadratics in r whose closed-form crossings of F's
    breakpoints (``_cells``) split it into intervals where the defect follows F's
    linear cells: a jump of F is never bracketed.  The first interval in the domain
    whose ends differ in sign holds the radius, all rays at once.  There 2 F of each
    side is a quadratic A_k(r), and sqrt(A_0) + sqrt(A_1) = sqrt(2 sigma(p0, p1))
    squares to a quadratic in r where F's two slopes are equal: its stable roots,
    less the root of the squaring, give the radius in closed form.  Where they differ
    (a grainy ramp's or a table's edge) the radius is a safeguarded Newton iteration
    from the interval's negative end, bisecting where a step fails.  The defect is
    concave within a cell (<d, d> < 0 and F increases), so a cell whose ends are
    both negative may hold two roots; it is not searched.  The Euclidean and
    Minkowski profiles vanish, deformed geometries give thick tubes; a station where
    no direction brackets a crossing is empty.
    A sigma(p0, p1) or chart length |p1 - p0| that overflows raises
    ``WorldFunctionError``.
    """
    cfg = TubeSamplerConfig._given(cfg)
    if g.dim < 2:
        raise InvalidInputError("tube sampling needs dim >= 2: a 1-d chart has no transverse direction")
    ends = as_points(g.dim, p0, p1)
    p0, p1 = ends
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        u = p1 - p0
        s_ab = sigma(g, p0, p1)
        length = float(np.linalg.norm(u))
    if not (math.isfinite(s_ab) and math.isfinite(length)):
        raise WorldFunctionError("sigma(p0, p1) or the chart length |p1 - p0| overflows: "
                                 "the tube cannot place its stations")
    if s_ab <= 0:
        raise InvalidInputError("tube sampling requires sigma(p0, p1) > 0")

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
    w = bases - ends[:, None, :]
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

        # on its bracket's cells a ray's side k is A_k = 2 F / S^2 = a + b r + c r^2,
        # S^2 = 2 sigma(p0, p1), and the boundary sqrt(A_0) + sqrt(A_1) = 1 squares to
        # (A_0 - A_1)^2 - 2 (A_0 + A_1) + 1 = 0: one quadratic where the slopes, so the
        # c, are equal
        mk = m[k] / s_ab
        a, b, c = ya[k] / s_ab + mk * (c0 - xa[k]), mk * c1, mk * c2
        da, db = a[0] - a[1], b[0] - b[1]
        A, B = db * db - 4.0 * c[0], 2.0 * (da * db - b[0] - b[1])
        C = da * da - 2.0 * (a[0] + a[1]) + 1.0
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        r = np.stack([q / A, C / q])
        # a root of the squaring has A_0 + A_1 > 1; of two alike, the one nearer the bracket
        spurious = ~(a[0] + a[1] + r * (b[0] + b[1] + 2.0 * r * c[0]) <= 1.0)
        miss = np.maximum(lo - r, r - hi)
        pick = np.where(spurious[0] == spurious[1], miss[1] < miss[0], spurious[0])
        r = np.clip(np.where(pick, r[1], r[0]), lo, hi)

        # unequal slopes: Newton on sqrt(A_0) + sqrt(A_1) - 1 from the bracket's negative
        # end, monotone as the defect is concave in a cell.  A step that is not finite,
        # leaves the bracket, is 0 (A_k = 0 at a light-cone end) or does not halve the
        # last one bisects; one below 2^-46 r_max ends the search
        mixed = found & (mk[0] != mk[1])[..., 0]
        if mixed.any():
            i = np.nonzero(mixed)
            a, b, c = a[:, i[0], i[1]], b[:, i[0], i[1]], c[:, i[0], i[1]]
            start = f_lo[i] <= 0.0
            x = below = np.where(start, lo[i], hi[i])
            above = np.where(start, hi[i], lo[i])
            done = np.zeros(x.shape, bool)
            last, tol = np.abs(above - below), 2.0 ** -46 * r_max
            for _ in range(math.ceil(math.log2(max(float(np.max(last)), 1e-13) / 1e-13))):
                root = np.sqrt(np.maximum(a + x * (b + x * c), 0.0))
                f = root[0] + root[1] - 1.0
                step = -f / np.sum((0.5 * b + x * c) / root, axis=0)
                low = f <= 0.0
                below, above = np.where(low, x, below), np.where(low, above, x)
                gap = np.where(low, above, below) - x
                into = step / gap
                newton = (0.0 < into) & (into < 1.0) & (np.abs(step) <= np.maximum(0.5 * last, tol))
                step = np.where(f == 0.0, 0.0, np.where(newton, step, 0.5 * gap))
                x, done = np.where(done, x, x + step), done | (np.abs(step) <= tol)
                last = np.abs(step)
                if done.all():
                    break
            r[i] = x
    radii = np.where(found, r[..., 0], np.where(at_zero[:, None], 0.0, np.nan))

    found = np.isfinite(radii)
    counts = found.sum(axis=1)
    sums = np.where(found, radii, 0.0).sum(axis=1)
    profile = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    si, di = np.nonzero(found)
    r = radii[si, di]
    points = np.column_stack([fractions[si] * length, r, bases[si] + r[:, None] * dirs[di]])
    return TubeSample(fractions, fractions * length, bases, radii, profile, points,
                      int((counts == 0).sum()), int(found.size - counts.sum()))
