"""Exact-arithmetic toolkit for knots in the cubic lattice."""

from .lattice import (
    Box,
    ISOMETRIES,
    Point,
    apply_isometry,
    are_collinear,
    are_coplanar,
    bounding_box,
    is_box_corner,
    is_staircase,
    l1_distance,
)
from .knot import (
    KnotError,
    LatticeKnot,
    LengthMismatch,
    Level,
    NonAxisParallel,
    NotClosed,
    SelfIntersection,
    Stick,
    StickType,
    Tabulation,
    build_knot,
    knot_from_vertices,
    partial_sums,
)
from .distortion import (
    DistortionOneReport,
    DistortionReport,
    PreconditionFailed,
    check_distortion_one_structure,
    distortion_upper_bound,
    format_exact,
    vertex_distortion,
)
from .oracle import bfs_distances, vertex_distortion_oracle
from .torus import (
    StructureReport,
    generate_torus_tabulation,
    torus_knot,
    verify_structure,
)
from .reduction import (
    AmountTooLarge,
    CollisionDetected,
    DegenerateStick,
    Direction,
    IrreducibilityReport,
    NonReducingMove,
    ReductionError,
    ReductionMove,
    apply_extension,
    apply_reduction,
    is_irreducible,
    max_reduction_amount,
    sweep_criterion_blocks,
)
from .explorer import (
    SearchResult,
    canonical_steps,
    classify_distortion_one,
    enumerate_conformations,
    random_lattice_knot,
    search_low_distortion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
