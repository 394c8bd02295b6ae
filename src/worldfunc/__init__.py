"""worldfunc: computational kernel for geometries defined by a world function.

A physical geometry is fixed entirely by sigma(P, Q), half the squared
distance between points.  This package evaluates sigma-based scalar
products, solves the vector-equivalence equations (exposing zero-, single-
and multivariance and the intransitivity of the relation), samples
tube-shaped straights and skeleton/envelope objects, and simulates
multivariant world chains of pointlike particles in discrete and grainy
deformations of the Minkowski space-time.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    EnvelopeEvalError,
    FamilyUndefinedError,
    InvalidDirectionError,
    InvalidInputError,
    InvalidStateError,
    SolverFailureError,
    UndefinedAngleError,
    WorldFunctionError,
)
from .geometry import (
    DeformationFunction,
    Geometry,
    GeomVector,
    TriangleReport,
    UnitConstants,
    as_point,
    check_triangle_axiom,
    deformation_value,
    euclidean_angle,
    metric_tensor,
    relative_density,
    scalar_product,
    sigma,
    sigma_coordinates,
    squared_length,
    triangle_defect,
)
from .equivalence import (
    CollinearityReport,
    EquivalenceReport,
    SegmentReport,
    SolutionSet,
    SolverConfig,
    SolverDiagnostics,
    TubeSample,
    TubeSamplerConfig,
    find_intransitivity_witness,
    is_collinear,
    is_equivalent,
    line_membership,
    minkowski_spacelike_family,
    sample_segment_tube,
    segment_membership,
    solve_equivalent,
)
from .objects import (
    Const,
    Envelope,
    Op,
    SigmaTerm,
    Skeleton,
    SkeletonEquivalenceReport,
    cylinder_envelope,
    evaluate_envelope,
    gram_F2,
    object_membership,
    skeletons_equivalent,
)
from .chains import (
    ChainParams,
    ChainStats,
    LinkStepReport,
    WorldChain,
    chain_rng,
    deflection_angle,
    generate_chain,
    particle_mass,
    simulate_ensemble,
    step_chain,
    verify_link_equivalence,
    w_correction,
)
