"""Semicrossed-product polynomials over subshifts of finite type.

The package builds one-sided shift systems and their invertible
extensions, the polynomial operator algebras the two dynamics generate,
explicit matrix pictures of those polynomials at sampled points, and
certified norm estimates that let the one-sided algebra be compared with
the two-sided one it sits inside.
"""

from .errors import (
    ConfigError,
    DeadState,
    GeneratorExhausted,
    NotSurjective,
    NotUnitModulus,
    Overflow,
    SemicrossedError,
    SeparationFailure,
    WordInadmissible,
)
from .dynamics import (
    CylinderFunction,
    Cycle,
    ItineraryStream,
    LassoPoint,
    SftGraph,
    classify_point,
    compose_shift,
    constant_cylinder,
    enumerate_cycles,
    eval_cylinder,
    girth,
    itinerary,
    make_cylinder,
    make_lasso,
    make_stream,
    shift_point,
    sup_norm,
    validate_sft,
)
from .streams import (
    MechanicalWord,
    ThueMorse,
    fibonacci_word,
    golden_mechanical,
    prefixed,
    substitution,
    thue_morse_substitution,
)
from .extension import (
    PROPERTIES,
    BiLassoPoint,
    PropertyReport,
    TwoSidedCylinder,
    apply_phi_tilde,
    backward_orbit_view,
    bilasso_from_cycle,
    classify_extended_point,
    embed_function,
    eval_two_sided,
    lift_point,
    make_bilasso,
    make_two_sided,
    project_p,
    property_check,
    ray_point,
    same_bisequence,
    to_one_sided,
    transfer_check,
)
from .algebra import (
    CrossedPoly,
    SemicrossedPoly,
    alpha_endomorphism,
    alpha_tilde,
    crossed_poly,
    crossed_u_power,
    embed_poly,
    from_function,
    l1_norm,
    linear_ops,
    multiply,
    poly_distance,
    regularize_right_multiply,
    semicrossed_poly,
    u_power,
)
from .representations import (
    NestReport,
    NormEstimate,
    NormLemmaReport,
    TruncationPolicy,
    build_Pi_x,
    build_Pi_y_lambda,
    build_pi_x,
    constant_A,
    constant_B,
    crossed_norm,
    norm_Pi_x,
    norm_pi_x,
    operator_norm,
    restricted_Pi_block,
    restricted_pi_block,
    seam_points,
    semicrossed_norm,
    sup_lambda_norm,
    sup_lambda_norms,
    tour_point,
    verify_nest_truncation,
    verify_norm_lemmas,
)
from .envelope import EmbeddingRow, EnvelopeReport, RegularizationRow, envelope_report
from .catalog import CATALOG, CatalogEntry, catalog_names, get_system
from .config import SystemConfig, load_config

__version__ = "0.1.0"
