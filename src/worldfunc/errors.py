"""Exception types shared across the package."""


class WorldFunctionError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(WorldFunctionError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(InvalidInputError):
    """Points or vectors do not match the chart dimension of the geometry."""


class DegenerateBasisError(WorldFunctionError, ValueError):
    """Reference-point basis yields a numerically singular metric tensor."""


class UndefinedAngleError(WorldFunctionError, ValueError):
    """Angle requested for vectors without real positive lengths, or with a
    scalar-product ratio outside the Euclidean range."""


class FamilyUndefinedError(WorldFunctionError, ValueError):
    """Spacelike solution family requested for a non-spacelike vector."""


class InvalidDirectionError(WorldFunctionError, ValueError):
    """Direction vector violates the constraint of the solution family."""


class SolverFailureError(WorldFunctionError, RuntimeError):
    """The solver missed or could not verify a solution known to exist."""


class InvalidStateError(WorldFunctionError, ValueError):
    """Chain state does not admit a next link (non-timelike leading vector)."""


class EnvelopeEvalError(WorldFunctionError, ArithmeticError):
    """Envelope expression failed to evaluate (e.g. division by zero).

    ``node_path`` locates the offending node inside the expression tree.
    """

    def __init__(self, message: str, node_path: str = ""):
        super().__init__(message)
        self.node_path = node_path
