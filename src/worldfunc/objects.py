"""Elementary geometrical objects defined by skeletons and envelope functions.

An object is the zero set of an envelope function f(R): an algebraic
expression whose only geometric inputs are world-function values between the
running point R and a finite ordered point set, the skeleton.  Because the
definition never leaves sigma, the same object exists in every geometry at
once; deforming the geometry deforms (and generally splits) the object.

The circular cylinder is built in: its envelope compares the Gram
determinant F2 (squared parallelogram area) of the axis pair with a surface
point against the same determinant with the running point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, EnvelopeEvalError, InvalidInputError
from .equivalence import EquivalenceReport, _skeleton_pair_reports
from .geometry import Geometry, _finish, _finite, as_point, sigma


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Ordered point set P0 .. Pn (n >= 1) defining an elementary object."""

    points: tuple

    def __post_init__(self):
        try:
            pts = tuple(as_point(p) for p in self.points)
        except TypeError as exc:  # as_point raises InvalidInputError, so iter() failed
            raise InvalidInputError(f"a skeleton takes a sequence of points, got "
                                    f"{type(self.points).__name__}") from exc
        if len(pts) < 2:
            raise InvalidInputError("a skeleton needs at least two points")
        dim = pts[0].shape[0]
        for p in pts[1:]:
            if p.shape[0] != dim:
                raise DimensionMismatchError("skeleton points must share one chart dimension")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def dim(self) -> int:
        return self.points[0].shape[0]

    @property
    def labels(self) -> list[str]:
        return [f"P{i}" for i in range(len(self.points))]


# ---------------------------------------------------------------------------
# envelope expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaTerm:
    """Leaf: sigma between two labelled points ('R' or 'P<k>')."""
    a: str
    b: str


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Op:
    """Internal node: '+' and '*' fold n-ary, '-' is unary or binary, '/' binary."""
    op: str
    args: tuple


class Envelope:
    """Either the built-in cylinder or an expression tree over sigma terms."""

    def __init__(self, kind: str, root=None):
        if kind not in ("cylinder", "expression"):
            raise InvalidInputError(f"unknown envelope kind {kind!r}")
        if kind == "expression" and root is None:
            raise InvalidInputError("expression envelope needs a root node")
        self.kind = kind
        self.root = root

    @classmethod
    def cylinder(cls) -> "Envelope":
        return cls("cylinder")

    @classmethod
    def from_expression(cls, root) -> "Envelope":
        return cls("expression", root)

    def to_dict(self) -> dict:
        if self.kind == "cylinder":
            return {"op": "cylinder"}
        return _node_to_dict(self.root)

    @classmethod
    def from_dict(cls, d: dict) -> "Envelope":
        if isinstance(d, dict) and d.get("op") == "cylinder":
            return cls.cylinder()
        return cls("expression", _node_from_dict(d))


def _node_to_dict(node) -> dict:
    if isinstance(node, SigmaTerm):
        return {"op": "sigma", "points": [node.a, node.b]}
    if isinstance(node, Const):
        return {"op": "const", "value": node.value}
    if isinstance(node, Op):
        return {"op": node.op, "args": [_node_to_dict(a) for a in node.args]}
    raise InvalidInputError(f"not an envelope node: {node!r}")


def _node_from_dict(d: dict, path: str = ""):
    """The node of d; a malformed one raises InvalidInputError naming its path."""
    try:
        op = d.get("op")
        if op == "sigma":
            a, b = d.get("points") or d.get("args")
            return SigmaTerm(str(a), str(b))
        if op == "const":
            return Const(float(d["value"]))
        args = list(d.get("args", ())) if op in ("+", "-", "*", "/") else None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"malformed envelope node at {path or '/'}: {type(exc).__name__}: {exc}") from exc
    if args is None:
        raise InvalidInputError(f"unknown envelope op {op!r} at {path or '/'}")
    return Op(op, tuple(_node_from_dict(a, f"{path}/args[{i}]") for i, a in enumerate(args)))


def _eval_node(node, lookup, path):
    if isinstance(node, SigmaTerm):
        return lookup(node.a, node.b, path)
    if isinstance(node, Const):
        return node.value
    if not isinstance(node, Op):
        raise InvalidInputError(f"not an envelope node at {path or '/'}: {node!r}")
    vals = [_eval_node(a, lookup, f"{path}/args[{i}]") for i, a in enumerate(node.args)]
    if node.op == "+":
        return sum(vals)
    if node.op == "*":
        return reduce(lambda a, b: a * b, vals)
    if node.op == "-":
        if len(vals) == 1:
            return -vals[0]
        if len(vals) == 2:
            return vals[0] - vals[1]
        raise InvalidInputError(f"'-' takes one or two args at {path or '/'}")
    if len(vals) != 2:
        raise InvalidInputError(f"'/' takes two args at {path or '/'}")
    if np.any(np.asarray(vals[1]) == 0.0):
        raise EnvelopeEvalError(f"division by zero at {path or '/'}", node_path=path or "/")
    return vals[0] / vals[1]


def _running_point(r, dim):
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 1:
        return as_point(arr, dim=dim)
    if arr.shape[-1] != dim:
        raise DimensionMismatchError(
            f"running points of dimension {arr.shape[-1]} against a skeleton of dimension {dim}")
    return arr


def evaluate_envelope(g: Geometry, sk: Skeleton, env: Envelope, r):
    """Value of the envelope function at the running point r.

    r may carry leading batch axes; a probe cloud evaluates in one call.
    """
    r = _running_point(r, sk.dim)
    if env.kind == "cylinder":
        if len(sk) != 3:
            raise InvalidInputError("the cylinder envelope needs a 3-point skeleton (P0, P1, Q)")
        return cylinder_envelope(g, sk[0], sk[1], sk[2], r)
    table = {"R": r}
    for i, p in enumerate(sk.points):
        table[f"P{i}"] = p

    def lookup(a, b, path):
        try:
            pa, pb = table[a], table[b]
        except KeyError as exc:
            raise InvalidInputError(
                f"envelope references unknown point {exc.args[0]!r} at {path or '/'} "
                f"(skeleton has {len(sk)} points)") from exc
        return sigma(g, pa, pb)

    return _finish(_eval_node(env.root, lookup, ""))


def _membership_scale(g: Geometry, sk: Skeleton, env: Envelope) -> float:
    # envelope magnitude at skeleton scale: evaluate at the skeleton points
    # themselves (for the cylinder this is max |F2|, reached at P0)
    vals = np.abs(np.ravel(evaluate_envelope(g, sk, env, np.array(sk.points))))
    return float(np.fmax.reduce(vals, initial=1.0))  # a NaN value never sets the scale


def object_membership(g: Geometry, sk: Skeleton, env: Envelope, r, tol: float = 1e-9):
    """True iff r lies in the zero set of the envelope, to a skeleton-scaled tolerance.

    Batched running points yield a boolean array.
    """
    _finite("tol", tol, 0.0)
    values = evaluate_envelope(g, sk, env, r)
    inside = np.abs(values) <= tol * _membership_scale(g, sk, env)
    return bool(inside) if np.ndim(inside) == 0 else inside


# ---------------------------------------------------------------------------
# the cylinder and its Gram determinant
# ---------------------------------------------------------------------------

def gram_F2(g: Geometry, p0, p1, q):
    """2x2 Gram determinant of the vectors P0P1 and P0Q.

    Equals the squared area of the parallelogram they span; zero iff the
    vectors are collinear.  q may carry batch axes.
    """
    p0 = as_point(p0, dim=g.dim)
    p1 = as_point(p1, dim=g.dim)
    q = _running_point(q, g.dim)
    s01 = np.asarray(sigma(g, p0, p1))
    s0q = np.asarray(sigma(g, p0, q))
    s1q = np.asarray(sigma(g, p1, q))
    s11 = 2.0 * s01                  # (P0P1 . P0P1)
    s22 = 2.0 * s0q                  # (P0Q . P0Q)
    s12 = s01 + s0q - s1q            # (P0P1 . P0Q), common origin
    return _finish(s11 * s22 - s12 * s12)


def cylinder_envelope(g: Geometry, p0, p1, q, r):
    """Envelope of the circular cylinder with axis points p0, p1 and surface point q:

        f(r) = F2(p0, p1, q) - F2(p0, p1, r)

    r may carry batch axes.
    """
    if np.array_equal(p0, p1):  # gram_F2 checks the points
        raise InvalidInputError("cylinder axis needs two distinct points")
    return _finish(np.asarray(gram_F2(g, p0, p1, q)) - np.asarray(gram_F2(g, p0, p1, r)))


# ---------------------------------------------------------------------------
# skeleton equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkeletonEquivalenceReport:
    equivalent: bool
    pair_reports: dict
    failing_pairs: tuple

    def report(self, i: int, k: int) -> EquivalenceReport:
        return self.pair_reports[(i, k)]


def skeletons_equivalent(g: Geometry, a: Skeleton, b: Skeleton,
                         tol: float = 1e-9) -> SkeletonEquivalenceReport:
    """Pairwise-vector equivalence of two skeletons of equal size.

    All pairs i < k are tested in one batched call (i > k follows by
    symmetry, i = k trivially); the report localizes every failing pair.
    """
    _finite("tol", tol, 0.0)
    if len(a) != len(b):
        raise InvalidInputError(f"skeleton sizes differ: {len(a)} vs {len(b)}")
    _, (reports,) = _skeleton_pair_reports(g, np.asarray(a.points), np.asarray(b.points), tol)
    failing = tuple(pair for pair, rep in reports.items() if not rep.equivalent)
    return SkeletonEquivalenceReport(not failing, reports, failing)
