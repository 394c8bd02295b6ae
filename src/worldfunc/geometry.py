"""World-function geometry kernel.

A geometry here is defined entirely by its world function sigma(P, Q), half
the squared distance between two points.  Every other notion -- scalar
product, length, angle, metric tensor -- is derived from sigma alone, so
deforming sigma deforms all of them consistently.  Points are tuples of
chart coordinates on the background manifold (R^n Euclidean, or R^4 with
signature +,-,-,- for the Minkowski-based geometries); downstream code is
expected to consume points only through sigma.

Supported world functions::

    euclidean   sigma_E = |p - q|^2 / 2                  on R^n
    minkowski   sigma_M = ((dt)^2 - |dx|^2) / 2          on R^4
    discrete    sigma_d = sigma_M + lambda0_sq * sgn(sigma_M)
    grainy      sigma_g = sigma_M + lambda0_sq * ramp(sigma_M; sigma0)
    deformed    sigma   = F(sigma_M),  F(0) = 0

Every geometry but the Euclidean one is sigma = F(sigma_M) and carries its
F as a ``DeformationFunction``, from which its ``kind`` is read.  The
built-in F are one formula, F(x) = x + lambda0_sq * ramp(x; sigma0) with
ramp = sgn(x) outside |x| <= sigma0 and x / sigma0 inside: lambda0_sq = 0
is the identity (minkowski), else sigma0 = 0 the discrete shift; a table is
deformed.  With sgn(0) = 0, sigma(P, P) = 0 holds exactly for every
variant.  The discrete geometry admits no point pairs with squared distance
in (0, 2*lambda0_sq): distances below sqrt(2)*lambda0 do not occur.

All sigma implementations are symmetric by construction and broadcast over
leading axes of the coordinate arrays.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    InvalidInputError,
    UndefinedAngleError,
    WorldFunctionError,
)

SIGNATURE_DIM = 4  # Minkowski-based charts are four-dimensional


# ---------------------------------------------------------------------------
# points and vectors
# ---------------------------------------------------------------------------

def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float coordinate array, checking numbers, finiteness and dim."""
    try:
        arr = np.asarray(p, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"a point must be a flat list of numbers, got {p!r}") from exc
    if arr.ndim != 1:
        raise InvalidInputError(f"point must be a flat coordinate tuple, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("point coordinates must be finite")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"point has dimension {arr.shape[0]}, expected {dim}")
    return arr


def as_points(dim: int, *points) -> np.ndarray:
    """The points as rows of one new (k, dim) float array, checked like ``as_point``.

    One stacked conversion and one finiteness check; where either fails,
    ``as_point`` runs on each point in order and raises its error for the
    first malformed one.  The check is that the Python sum of the
    coordinates is finite: an inf or NaN never sums to a finite value, and a
    sum that overflows on finite points only sends them through ``as_point``.
    """
    try:
        arr = np.array(points, dtype=float)
        if arr.shape == (len(points), dim) and math.isfinite(sum(arr.ravel().tolist())):
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    return np.array([as_point(p, dim=dim) for p in points])


@dataclass(frozen=True, eq=False)
class GeomVector:
    """A vector is an ordered pair of points (origin, end)."""

    origin: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        o = as_point(self.origin)
        e = as_point(self.end, dim=o.shape[0])
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "end", e)

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    @property
    def displacement(self) -> np.ndarray:
        """Chart coordinate difference end - origin (a scaffold quantity,
        meaningful only in the background chart)."""
        return self.end - self.origin

    def __repr__(self):
        return f"GeomVector({self.origin.tolist()} -> {self.end.tolist()})"


# ---------------------------------------------------------------------------
# unit constants and deformation functions
# ---------------------------------------------------------------------------

class _Config:
    """A frozen config dataclass, each field declared once by its name, annotated
    type, default and ``_MINIMUMS`` entry.  Construction stores each field as its
    type (int via ``_integral``, float via ``_finite``, ``Geometry`` from a mapping)
    or raises ``InvalidInputError`` naming it; ``from_dict`` is the same path."""

    _MINIMUMS = {}  # field name -> smallest value the field may take

    def __post_init__(self):
        for name, kind, optional, minimum in self._fields():
            value = getattr(self, name)
            if kind is int:
                value = _integral(name, value, minimum)
            elif kind is not float:
                value = value if isinstance(value, kind) else kind.from_dict(value)
            elif not (value is None and optional):
                value = _finite(name, value, minimum)
            vars(self)[name] = value  # frozen: past the dataclass's __setattr__

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.to_dict() if hasattr(v, "to_dict") else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise InvalidInputError(f"{cls.__name__} needs a mapping, got {type(d).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING]
        if missing:  # no config field has a default_factory
            raise InvalidInputError(f"{cls.__name__} needs {', '.join(missing)}")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    @classmethod
    def _given(cls, cfg):
        """cfg as passed to a library function: the defaults for None, else an instance."""
        if cfg is None:
            return cls()
        if not isinstance(cfg, cls):
            raise InvalidInputError(f"cfg must be a {cls.__name__} or None, got "
                                    f"{type(cfg).__name__}; parse a mapping with "
                                    f"{cls.__name__}.from_dict")
        return cfg

    @classmethod
    @functools.cache
    def _fields(cls) -> tuple:
        """(name, type, optional, minimum) of each field; optional is ``type | None``."""
        hints = typing.get_type_hints(cls)
        args = {f.name: typing.get_args(hints[f.name]) for f in fields(cls)}  # (float, NoneType)
        return tuple((name, a[0] if a else hints[name], bool(a), cls._MINIMUMS.get(name, -math.inf))
                     for name, a in args.items())


@dataclass(frozen=True)
class UnitConstants(_Config):
    """Action, speed and mass-per-length constants tying geometry to dynamics.

    The elementary area hbar / (2 b c) is the discrete-geometry deformation
    strength derived from them.
    """

    hbar: float = 1.0
    c: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        for name, v in self.to_dict().items():
            if not v > 0:
                raise InvalidInputError(f"unit constant {name} must be positive, got {v}")

    @property
    def elementary_area(self) -> float:
        """lambda0^2 = hbar / (2 b c)."""
        return self.hbar / (2.0 * self.b * self.c)


def _finish(value):
    return float(value) if np.ndim(value) == 0 else value


_FLOAT64 = np.dtype(float)


def _finite(name: str, value, minimum: float = -math.inf) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(v):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    if v < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum:g}, got {value}")
    return v + 0.0  # -0.0 becomes 0.0


def _integral(name: str, value, minimum: float = -math.inf) -> int:
    """The value of an integer field, at least ``minimum``: an int, or a float
    or string holding an integral number ("9", 4.0).  A bool, a fraction, a
    smaller value or any other value raises InvalidInputError naming the field."""
    try:  # an int is its own Fraction, of denominator 1
        number = value if type(value) is int else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):  # "0/0"
        number = None
    if number is None or isinstance(value, bool) or number.denominator != 1:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if number < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum:g}, got {value}")
    return int(number)


class DeformationFunction:
    """Scalar function F applied to the Minkowski world function, F(0) = 0.

    The built-ins are one formula, F(x) = x + lambda0_sq * ramp(x; sigma0),
    with ramp(x; sigma0) = sgn(x) for |x| > sigma0 and x / sigma0 inside
    (sgn(x) when sigma0 = 0): ``identity`` (lambda0_sq = 0),
    ``discrete_shift`` (sigma0 = 0) and ``grainy_ramp``.  Both parameters
    must be finite and >= 0, and lambda0_sq / sigma0 finite; sigma0 is held
    at 0 when lambda0_sq is, so equal F have equal parameters.  User
    functions are piecewise linear tables of (sigma_M, sigma) breakpoints,
    strictly increasing in both, every segment slope finite, whose end
    segments are extended linearly beyond the table.
    """

    def __init__(self, *, lambda0_sq: float = 0.0, sigma0: float = 0.0,
                 table: np.ndarray | None = None):
        self.lambda0_sq = _finite("lambda0_sq", lambda0_sq, 0.0)
        sigma0 = _finite("sigma0", sigma0, 0.0)
        self.sigma0 = sigma0 if self.lambda0_sq else 0.0  # no shift, so no ramp to widen
        if self.sigma0 and not math.isfinite(self.lambda0_sq / self.sigma0):
            raise InvalidInputError(f"sigma0 = {sigma0!r} is too small for lambda0_sq = "
                                    f"{self.lambda0_sq!r}: the ramp slope lambda0_sq / sigma0 "
                                    "overflows")
        self.table = None
        self._cell_arrays = None  # _cells(self), computed on first use
        if table is not None:
            if self.lambda0_sq:
                raise InvalidInputError("a table deformation takes no lambda0_sq or sigma0")
            try:  # a copy: F, and the cells _cells holds for it, never change
                tab = np.array(table, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"table must hold numbers: {exc}") from exc
            if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                raise InvalidInputError("table must be a list of at least two (sigma_M, sigma) pairs")
            if not np.all(np.isfinite(tab)):
                raise InvalidInputError("table breakpoints must be finite")
            k = int(np.argmin(np.all(np.diff(tab, axis=0) > 0, axis=1)))  # first bad segment
            if not np.all(tab[k + 1] > tab[k]):
                raise InvalidInputError(f"table must be strictly increasing: segment {k} from "
                                        f"{tab[k].tolist()} to {tab[k + 1].tolist()} is not")
            with np.errstate(over="ignore"):  # a difference or quotient past DBL_MAX is inf
                m = np.diff(tab[:, 1]) / np.diff(tab[:, 0])
            k = int(np.argmin((m > 0) & (m < math.inf)))  # first segment of unusable slope
            if not 0 < m[k] < math.inf:
                raise InvalidInputError(f"table slope must be finite and > 0: segment {k} from "
                                        f"{tab[k].tolist()} to {tab[k + 1].tolist()} has slope "
                                        f"{m[k]}")
            tab.flags.writeable = False
            self.table = tab
            # the contiguous columns and the end segments' (x, y, slope), held for every call
            self._columns = tab[:, 0].copy(), tab[:, 1].copy()
            self._ends = (float(tab[0, 0]), float(tab[0, 1]), float(m[0]),
                          float(tab[-1, 0]), float(tab[-1, 1]), float(m[-1]))
            if float(self(0.0)) != 0.0:
                raise InvalidInputError(
                    "deformation must satisfy F(0) = 0 exactly; add a (0, 0) breakpoint")

    @classmethod
    def identity(cls) -> "DeformationFunction":
        return cls()

    @classmethod
    def discrete_shift(cls, lambda0_sq: float) -> "DeformationFunction":
        return cls(lambda0_sq=lambda0_sq)

    @classmethod
    def grainy_ramp(cls, lambda0_sq: float, sigma0: float) -> "DeformationFunction":
        return cls(lambda0_sq=lambda0_sq, sigma0=sigma0)

    @classmethod
    def from_table(cls, pairs) -> "DeformationFunction":
        return cls(table=pairs)

    def _shift(self, x):
        """F(x) - x; exactly lambda0_sq * ramp(x; sigma0) for the built-ins."""
        if self.table is not None:
            return _piecewise_linear(x, *self._columns, self._ends) - x
        if self.sigma0 == 0.0:  # the discrete shift exactly, not a 0/0 ramp
            ramp = np.sign(x)
        else:
            # |quotient| <= 1 cannot overflow; outside the ramp it is sgn(x) exactly
            # (np.minimum/np.maximum skip np.clip's Python wrappers, same bits)
            ramp = np.minimum(np.maximum(x, -self.sigma0), self.sigma0) / self.sigma0
        return self.lambda0_sq * ramp

    def __call__(self, sigma_m):
        # [()] makes a 0-d input a numpy scalar: scalar sigma calls stay on
        # the cheap scalar arithmetic instead of 0-d array ufuncs.  A float64
        # array of values is used as it is
        x = sigma_m
        if not (type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim):
            x = np.asarray(x, dtype=float)[()]
        if self.table is not None:
            v = _piecewise_linear(x, *self._columns, self._ends)
        else:
            v = x + self._shift(x)
        return float(v) if v.ndim == 0 else v


def _cells(F: DeformationFunction | None):
    """Linear cells of F: (xs, m, xa, ya), F(x) = ya[k] + m[k] (x - xa[k]) on the open
    cell k = (xs[k - 1], xs[k]), with xs[-1] = -inf and xs[len(xs)] = inf.  The
    breakpoints are a table's (end segments extended) or the ramp edges +-sigma0,
    and hold 0, so no cell crosses the light cone.  The slopes m are F's: a table's
    segment slopes, else 1 outside the ramp and 1 + lambda0_sq / sigma0 inside it,
    each finite and > 0 by the constructor's checks.  F None (Euclidean) is the identity.
    They are computed once per F and held read-only: every caller shares the arrays."""
    F = _IDENTITY if F is None else F
    if F._cell_arrays is None:
        edges = [-F.sigma0, F.sigma0] if F.table is None else F.table[:, 0]
        xs = np.sort(np.append(edges, 0.0))  # not np.union1d: np.unique imports numpy.ma
        xs = xs[np.append(True, xs[1:] > xs[:-1])] + 0.0  # one 0, never -0.0
        inner = np.concatenate([[xs[0] - 1.0], 0.5 * (xs[:-1] + xs[1:]), [xs[-1] + 1.0]])
        if F.table is None:  # anchored at 0: outside the ramp ya + m x is F's own x + lambda0_sq sgn(x)
            out = np.abs(inner) > F.sigma0
            ramp = 1.0 + F.lambda0_sq / F.sigma0 if F.sigma0 else 1.0  # sigma0 = 0: no ramp cell
            ya = np.where(out, F.lambda0_sq * np.sign(inner), 0.0)
            cells = xs, np.where(out, 1.0, ramp), np.zeros_like(inner), ya
        else:
            tx, ty = F.table.T  # anchored where np.interp and the extended end segments anchor
            a = np.clip(np.searchsorted(tx, inner, side="right") - 1, 0, len(tx) - 1)
            cells = xs, (np.diff(ty) / np.diff(tx))[np.minimum(a, len(tx) - 2)], tx[a], ty[a]
        for arr in cells:
            arr.flags.writeable = False
        F._cell_arrays = cells
    return F._cell_arrays


_IDENTITY = DeformationFunction.identity()


def _piecewise_linear(x, xs, ys, ends):
    """np.interp on the table (xs, ys), its end segments extended: ends holds
    the first and the last breakpoint's (x, y, slope of its segment)."""
    x_lo, y_lo, m_lo, x_hi, y_hi, m_hi = ends
    v = np.interp(x, xs, ys)
    lo = x < x_lo
    hi = x > x_hi
    if lo.any():
        v = np.where(lo, y_lo + (x - x_lo) * m_lo, v)
    if hi.any():
        v = np.where(hi, y_hi + (x - x_hi) * m_hi, v)
    return v


# ---------------------------------------------------------------------------
# geometry specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Geometry:
    """A world function plus unit constants.

    Use the classmethod constructors.  ``deformation`` is the F of sigma =
    F(sigma_M), None for the Euclidean geometry; sigma, ``kind``,
    ``lambda0_sq`` and ``sigma0`` are all read from it.  However built, the
    geometry stores ``dim`` through ``_integral`` and ``units`` as a
    ``UnitConstants`` (None for the defaults, a mapping through
    ``UnitConstants.from_dict``), or raises ``InvalidInputError``.
    """

    dim: int = SIGNATURE_DIM
    deformation: DeformationFunction | None = None
    units: UnitConstants = field(default_factory=UnitConstants)

    def __post_init__(self):
        dim = vars(self)["dim"] = _integral("dim", self.dim)  # frozen: past __setattr__
        if not isinstance(self.deformation, (DeformationFunction, type(None))):
            raise InvalidInputError(f"deformation must be a DeformationFunction or None, got "
                                    f"{type(self.deformation).__name__}")
        if self.deformation is None and dim < 1:
            raise InvalidInputError("euclidean dimension must be >= 1")
        if self.deformation is not None and dim != SIGNATURE_DIM:
            raise InvalidInputError(f"a {self.kind} geometry has dimension {SIGNATURE_DIM}, "
                                    f"not {dim}")
        units = UnitConstants() if self.units is None else self.units
        if not isinstance(units, UnitConstants):
            units = UnitConstants.from_dict(units)  # InvalidInputError unless a mapping
        vars(self)["units"] = units

    @classmethod
    def euclidean(cls, dim: int, units: UnitConstants | None = None) -> "Geometry":
        return cls(dim, units=units)

    @classmethod
    def minkowski(cls, units: UnitConstants | None = None) -> "Geometry":
        return cls.deformed(DeformationFunction.identity(), units=units)

    @classmethod
    def discrete(cls, lambda0_sq: float, units: UnitConstants | None = None) -> "Geometry":
        F = DeformationFunction.discrete_shift(lambda0_sq)
        if not F.lambda0_sq > 0:
            raise InvalidInputError("discrete geometry requires lambda0_sq > 0")
        return cls.deformed(F, units=units)

    @classmethod
    def discrete_from_units(cls, units: UnitConstants) -> "Geometry":
        """Discrete geometry with lambda0^2 = hbar / (2 b c)."""
        return cls.discrete(units.elementary_area, units=units)

    @classmethod
    def grainy(cls, lambda0_sq: float, sigma0: float,
               units: UnitConstants | None = None) -> "Geometry":
        return cls.deformed(DeformationFunction.grainy_ramp(lambda0_sq, sigma0), units=units)

    @classmethod
    def deformed(cls, deformation: DeformationFunction,
                 units: UnitConstants | None = None) -> "Geometry":
        return cls(deformation=deformation, units=units)

    @property
    def kind(self) -> str:
        """The variant, read from F: ``euclidean`` without one, ``deformed``
        for a table, else ``minkowski`` (lambda0_sq = 0), ``discrete``
        (sigma0 = 0) or ``grainy``."""
        F = self.deformation
        if F is None:
            return "euclidean"
        if F.table is not None:
            return "deformed"
        if F.lambda0_sq == 0.0:
            return "minkowski"
        return "discrete" if F.sigma0 == 0.0 else "grainy"

    @property
    def has_minkowski_substrate(self) -> bool:
        return self.deformation is not None

    @property
    def lambda0_sq(self) -> float:
        """The deformation's lambda0_sq; 0 for the Euclidean geometry and tables."""
        return 0.0 if self.deformation is None else self.deformation.lambda0_sq

    @property
    def sigma0(self) -> float:
        """The deformation's sigma0; 0 unless the geometry is grainy."""
        return 0.0 if self.deformation is None else self.deformation.sigma0

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "dim": self.dim, "lambda0_sq": self.lambda0_sq,
             "sigma0": self.sigma0, "units": self.units.to_dict()}
        if self.kind == "deformed":
            d["F_table"] = self.deformation.table.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Geometry":
        """Parse a serialized geometry (``deformed``: an ``F_table``), naming a missing or null key."""
        if not isinstance(d, dict):
            raise InvalidInputError(f"a geometry must be a mapping, got {type(d).__name__}")
        kind = d.get("kind")
        needs = {"discrete": ["lambda0_sq"], "grainy": ["lambda0_sq", "sigma0"], "deformed": ["F_table"]}
        if missing := [key for key in needs.get(str(kind), []) if d.get(key) is None]:
            raise InvalidInputError(f"a {kind} geometry needs {' and '.join(missing)}")
        units = UnitConstants.from_dict(d.get("units", {}))
        if kind == "euclidean":
            return cls.euclidean(d.get("dim", 3), units=units)
        if kind == "minkowski":
            return cls.minkowski(units=units)
        if kind == "discrete":
            return cls.discrete(d["lambda0_sq"], units=units)
        if kind == "grainy":
            return cls.grainy(d["lambda0_sq"], d["sigma0"], units=units)
        if kind == "deformed":
            return cls.deformed(DeformationFunction.from_table(d["F_table"]), units=units)
        raise InvalidInputError(f"unknown geometry kind {kind!r}")


# ---------------------------------------------------------------------------
# the world function and its derived primitives
# ---------------------------------------------------------------------------

def _coords(g: Geometry, p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1:] != (g.dim,):
        raise DimensionMismatchError(
            f"coordinates of dimension {arr.shape[-1] if arr.ndim else 0} "
            f"passed to a {g.kind} geometry of dimension {g.dim}")
    return arr


def _mdot(x, y):
    """Minkowski scalar product (signature +,-,-,-) over the last axis."""
    xy = x * y  # one contiguous product; the strided per-slice products cost more
    return xy[..., 0] - np.add.reduce(xy[..., 1:], axis=-1)  # np.sum without its wrapper


def _sigma_m(d):
    """Minkowski world function of coordinate differences d (last axis)."""
    return 0.5 * _mdot(d, d)


def sigma(g: Geometry, p, q):
    """World function sigma(p, q); symmetric, sigma(p, p) = 0 exactly.

    Broadcasts over leading axes, so point clouds evaluate in one call.
    """
    p = _coords(g, p)
    q = _coords(g, q)
    d = p - q
    if g.deformation is None:
        return _finish(0.5 * np.add.reduce(d * d, axis=-1))
    return g.deformation(_sigma_m(d))


# numpy's add.reduce sums fewer values than this in order, and more pairwise
_IN_ORDER = 8


def _euclidean_sigma(p, q):
    """Euclidean sigma(p, q) of two lists of Python floats, summed in order:
    0.5 * (((d0 d0 + d1 d1) + d2 d2) + ...).

    Below ``_IN_ORDER`` coordinates that is numpy's order, so the result is
    ``sigma``'s bit for bit.  Builtin ``sum`` would not do: from Python 3.12
    it compensates a float sum.  An overflow gives inf without a warning.
    """
    d = p[0] - q[0]
    acc = d * d
    for i in range(1, len(p)):
        d = p[i] - q[i]
        acc += d * d
    return 0.5 * acc


_ETA = np.array([1.0, -1.0, -1.0, -1.0])  # Minkowski metric diagonal


def deformation_value(g: Geometry, sigma_m):
    """Deformation d(sigma_M) = F(sigma_M) - sigma_M of a substrate geometry.

    Exactly lambda0_sq * ramp(sigma_M; sigma0) for the built-in F (a signed
    zero for the identity), F(sigma_M) - sigma_M for tables.
    """
    if not g.has_minkowski_substrate:
        raise WorldFunctionError("the Euclidean geometry has no Minkowski substrate")
    return _finish(g.deformation._shift(np.asarray(sigma_m, dtype=float)))


def scalar_product(g: Geometry, a: GeomVector, b: GeomVector) -> float:
    """sigma-scalar product of two vectors a = P0P1 and b = Q0Q1:

        (a.b) = sigma(P0,Q1) + sigma(P1,Q0) - sigma(P0,Q0) - sigma(P1,Q1)

    In the Euclidean and Minkowski geometries this reproduces the coordinate
    dot product; in a deformed geometry it is the only scalar product there is.
    """
    return _scalar_product_arrays(g, a.origin, a.end, b.origin, b.end)


def _scalar_product_arrays(g, p0, p1, q0, q1):
    return _finish(np.asarray(sigma(g, p0, q1)) + np.asarray(sigma(g, p1, q0))
                   - np.asarray(sigma(g, p0, q0)) - np.asarray(sigma(g, p1, q1)))


def squared_length(g: Geometry, a: GeomVector) -> float:
    """(a.a) = 2 sigma(origin, end); negative for spacelike vectors."""
    return _finish(2.0 * np.asarray(sigma(g, a.origin, a.end)))


def relative_density(lambda0_sq: float, sigma0: float, sigma_g) -> float:
    """Relative density of points of the grainy geometry against Minkowski:

        rho = 1                           if |sigma_g| > sigma0 + lambda0_sq
        rho = sigma0 / (sigma0 + lambda0_sq)   otherwise

    For sigma0 -> 0 the inner density goes to 0: the discrete limit.  With
    lambda0_sq = sigma0 = 0 the geometry is undeformed and rho = 1 everywhere.
    """
    F = DeformationFunction.grainy_ramp(lambda0_sq, sigma0)
    edge = F.sigma0 + F.lambda0_sq
    if edge == 0.0:
        return _finish(np.ones_like(np.asarray(sigma_g, dtype=float)))
    inner = F.sigma0 / edge
    out = np.where(np.abs(np.asarray(sigma_g, dtype=float)) > edge, 1.0, inner)
    return _finish(out)


def triangle_defect(g: Geometry, p0, p1, r):
    """Triangle defect sqrt(2 s(p0,r)) + sqrt(2 s(r,p1)) - sqrt(2 s(p0,p1)).

    Broadcasts like ``sigma``; NaN where any of the three sigma values is
    negative (the defect concerns real distances only).
    """
    s_ar = np.asarray(sigma(g, p0, r))
    s_rb = np.asarray(sigma(g, r, p1))
    s_ab = np.asarray(sigma(g, p0, p1))
    with np.errstate(invalid="ignore"):  # sqrt of a negative sigma is the NaN
        return _finish(np.sqrt(2.0 * s_ar) + np.sqrt(2.0 * s_rb) - np.sqrt(2.0 * s_ab))


@dataclass(frozen=True)
class TriangleReport:
    holds: bool
    slack: float
    skipped: bool


def check_triangle_axiom(g: Geometry, triples, tol: float = 1e-9) -> list[TriangleReport]:
    """Evaluate the triangle defect (``triangle_defect``) of triples (p0, p1, r).

    Triples where any of the three sigma values is negative are skipped (the
    axiom concerns real distances only); otherwise the axiom holds iff
    slack >= -tol.
    """
    _finite("tol", tol, 0.0)
    arr = np.asarray(triples, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, ...]
    if arr.ndim != 3 or arr.shape[1] != 3 or not np.all(np.isfinite(arr)):
        raise InvalidInputError("triples must be finite, of shape (m, 3, dim)")
    slack = triangle_defect(g, arr[:, 0], arr[:, 1], arr[:, 2])
    skipped = np.isnan(slack)
    holds = skipped | (slack >= -tol)
    return [TriangleReport(bool(h), float(s), bool(k))
            for h, s, k in zip(holds, slack, skipped)]


def metric_tensor(g: Geometry, origin, basis) -> tuple[np.ndarray, np.ndarray]:
    """Metric tensor g_kl = (OS_k . OS_l) of a reference-point basis, plus its inverse.

    ``basis`` is a list of g.dim points S_k; the matrix must be numerically
    invertible (max |g^kj g_jl - delta| < 1e-10), else DegenerateBasisError.
    """
    o = as_point(origin, dim=g.dim)
    pts = np.array([as_point(s, dim=g.dim) for s in basis])
    if len(pts) != g.dim:
        raise DimensionMismatchError(f"basis needs {g.dim} points, got {len(pts)}")
    # one broadcast call; g_lk = g_kl bit for bit by the symmetry of sigma
    gkl = np.asarray(_scalar_product_arrays(g, o, pts[:, None], o, pts[None]))
    try:
        ginv = np.linalg.inv(gkl)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"singular metric tensor: {exc}") from exc
    defect = np.abs(ginv @ gkl - np.eye(g.dim)).max()
    if not np.isfinite(defect) or defect >= 1e-10:
        raise DegenerateBasisError(f"metric tensor numerically singular (inverse defect {defect:.3e})")
    return gkl, ginv


def sigma_coordinates(g: Geometry, v: GeomVector, origin, basis) -> np.ndarray:
    """Contravariant coordinates of v relative to a reference-point basis:

        x_k = (v . OS_k),   x^k = g^kl x_l

    With the standard basis in Euclidean or Minkowski geometry this returns
    the chart coordinate differences end - origin.
    """
    _, ginv = metric_tensor(g, origin, basis)
    # metric_tensor has validated origin and basis
    cov = _scalar_product_arrays(g, v.origin, v.end, np.asarray(origin, dtype=float),
                                 np.asarray(basis, dtype=float))
    return ginv @ cov


def euclidean_angle(g: Geometry, a: GeomVector, b: GeomVector, tol: float = 1e-9) -> float:
    """Angle theta with |a| |b| cos(theta) = (a.b), for vectors of real positive length.

    A ratio beyond [-1 - tol, 1 + tol] means the geometry is outside the
    Euclidean regime at these vectors; that raises rather than clamping.
    """
    _finite("tol", tol, 0.0)
    two_a = squared_length(g, a)
    two_b = squared_length(g, b)
    if two_a <= 0 or two_b <= 0:
        raise UndefinedAngleError(
            f"angle needs positive squared lengths, got {two_a} and {two_b}")
    ratio = scalar_product(g, a, b) / math.sqrt(two_a * two_b)
    if abs(ratio) > 1.0 + tol:
        raise UndefinedAngleError(
            f"scalar-product ratio {ratio} outside [-1, 1]: non-Euclidean regime")
    return math.acos(min(1.0, max(-1.0, ratio)))
