"""relheffter: relative Heffter arrays, Archdeacon arrays, the Crazy Knight's
Tour Problem, and certified cycle decompositions / surface biembeddings."""

from .group import (
    GroupElement,
    GroupError,
    GroupSpec,
    from_symmetric,
    neg,
    subgroup_of_order,
    sum_elements,
    symmetric_rep,
)
from .pfarray import (
    Cell,
    ConstructionError,
    DiagSpec,
    PFArray,
    Skeleton,
    classify_diagonals,
    diag,
    diagonal_cells,
    diagonal_index,
    direct_sum,
    skeleton_from_diagonals,
    support,
)
from .heffter import (
    HeffterParams,
    VerificationReport,
    check_compatibility_parity,
    check_necessary_conditions,
    check_support,
    necessary_conditions_pass,
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
    compose_orderings,
    is_globally_simple,
    is_simple,
    knight_search,
    knight_step,
    knight_tour,
    nine_diagonal_orientation,
    nine_diagonal_skeleton,
    lift_solution,
    natural_ordering,
    orientation_to_orderings,
    partial_sums,
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
