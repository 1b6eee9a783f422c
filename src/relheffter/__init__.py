"""relheffter: relative Heffter arrays, Archdeacon arrays, the Crazy Knight's
Tour Problem, and certified cycle decompositions / surface biembeddings."""

from .group import (
    GroupElement,
    GroupError,
    GroupSpec,
    neg,
    sum_elements,
)
from .pfarray import (
    Cell,
    ConstructionError,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    diagonal_cells,
    direct_sum,
    fill_diagonals,
    skeleton_from_diagonals,
)
from .heffter import (
    HeffterParams,
    VerificationReport,
    skeleton_parity_ok,
    verify_archdeacon,
    verify_integer,
    verify_relative_heffter,
)
from .constructions import (
    FAMILIES,
    build_archdeacon_composite,
    build_B,
    build_h7,
    build_h9,
    build_h_2n_3,
    build_h_n_3,
    build_skeleton_cor39,
)
from .orderings import (
    LiftSpec,
    Ordering,
    Orientation,
    is_globally_simple,
    knight_search,
    knight_tour,
    knight_walk,
    nine_diagonal_orientation,
    lift_solution,
    orientation_to_orderings,
    search_lift_shape,
)
from .topology import (
    BiembeddingCertificate,
    CayleyGraph,
    CertificationError,
    Cycle,
    DecompositionCertificate,
    EmbeddingReport,
    base_cycles,
    build_rho0,
    certify_biembedding,
    develop_and_verify,
    heffter_genus_formula,
    trace_faces,
    two_color_check,
    verify_orthogonal,
)

__version__ = "0.1.0"
