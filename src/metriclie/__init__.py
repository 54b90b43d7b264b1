"""Exact-arithmetic analysis of left-invariant metric structures on
finite-dimensional Lie algebras: connection derivation, curvature and
related invariants, annihilator subspaces, decomposition into
indecomposable nondegenerate strong ideals with verifiable certificates,
and uniqueness tooling (factor comparison, strong isometries, filtration
chains, flat Riemannian splittings)."""

from .algebra import (
    MODE_BRACKET,
    MODE_CONNECTION,
    AlgebraSpec,
    ConnectionCoeffs,
    ValidationReport,
    check_torsion_and_compatibility,
    connection_of,
    derive_connection,
    left_op,
    left_ops,
    restrict,
    right_op,
    right_ops,
    transform_spec,
    validate,
)
from .catalog import CatalogEntry, catalog_get, catalog_list
from .curvature import (
    ClassificationReport,
    CurvatureTensor,
    ad_matrix,
    classify,
    curvature_tensor,
    is_biinvariant,
    killing_form,
    nilpotency_class,
    ricci,
)
from .decompose import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    AdaptedBasis,
    Certificate,
    CompareReport,
    Decomposition,
    Evidence,
    FiltrationChain,
    FlatSplit,
    NotApplicable,
    Unsupported,
    adapted_basis,
    build_strong_isometry,
    commutant,
    compare_decompositions,
    decompose,
    decomposition_from_factors,
    filtration,
    flat_riemannian_structure,
    nabla_span,
    verify_decomposition,
)
from .errors import (
    CertificateError,
    InputFormatError,
    MetricLieError,
    PreconditionError,
)
from .fileformat import (
    InputDocument,
    dumps_document,
    load_path,
    parse_document,
    parse_string,
    serialize_document,
)
from .ideals import (
    CASE_ANN_R_EQ_ANN,
    CASE_ANN_R_FULL,
    CASE_ANN_R_ZERO,
    CASE_ISOTROPIC,
    CASE_NON_ISOTROPIC,
    AnnReport,
    ann,
    ann_r,
    ann_report,
    is_isotropic,
    is_strong_ideal,
    nabla_gg,
    strong_ideal_closure,
)
from .linalg import Mat, Subspace, SymForm, congruent_diagonalize

__version__ = "0.1.0"

__all__ = [
    "MODE_BRACKET", "MODE_CONNECTION", "AlgebraSpec", "ConnectionCoeffs",
    "ValidationReport", "check_torsion_and_compatibility", "connection_of",
    "derive_connection", "left_op", "left_ops", "restrict",
    "right_op", "right_ops", "transform_spec", "validate",
    "CatalogEntry", "catalog_get", "catalog_list",
    "ClassificationReport", "CurvatureTensor", "ad_matrix", "classify",
    "curvature_tensor", "is_biinvariant", "killing_form", "nilpotency_class",
    "ricci",
    "DEFAULT_BUDGET", "DEFAULT_SEED", "AdaptedBasis", "Certificate",
    "CompareReport", "Decomposition", "Evidence", "FiltrationChain",
    "FlatSplit", "NotApplicable", "Unsupported", "adapted_basis",
    "build_strong_isometry", "commutant", "compare_decompositions",
    "decompose", "decomposition_from_factors", "filtration",
    "flat_riemannian_structure", "nabla_span", "verify_decomposition",
    "CertificateError", "InputFormatError", "MetricLieError",
    "PreconditionError",
    "InputDocument", "dumps_document", "load_path", "parse_document",
    "parse_string", "serialize_document",
    "CASE_ANN_R_EQ_ANN", "CASE_ANN_R_FULL", "CASE_ANN_R_ZERO",
    "CASE_ISOTROPIC", "CASE_NON_ISOTROPIC", "AnnReport", "ann", "ann_r",
    "ann_report", "is_isotropic", "is_strong_ideal", "nabla_gg",
    "strong_ideal_closure",
    "Mat", "Subspace", "SymForm", "congruent_diagonalize",
    "__version__",
]
