"""Unitals, their translations, and the Figueroa polar unital."""

from .analysis import (
    ClassificationReport,
    ConstantIntersectionReport,
    SharpTransitivityReport,
    SubunitalReport,
    classify,
    constant_intersection_check,
    sharply_transitive_suite,
    subunital_analysis,
)
from .figueroa import (
    FigueroaBundle,
    FigueroaVerification,
    figueroa_bundle,
    hermitian_restriction,
    verify_figueroa_theorems,
)
from .gf import Field, make_field, prime_power
from .incidence import (
    Incidence,
    OnanResult,
    Unital,
    ValidationReport,
    format_unital,
    ideal_embedding_check,
    isomorphism_search,
    onan_search,
    parse_unital,
    read_unital,
    restrict_to,
    validate_unital,
)
from .permgroup import (
    PermGroup,
    generalized_dihedral_check,
    is_transitive,
    is_two_transitive,
    unique_involution_check,
)
from .plane import ProjectivePlane, hermitian_unital, projective_plane
from .translations import (
    TranslationAtlas,
    build_atlas,
    is_translation,
    orbit_congruence_check,
    translation_transitivity_check,
    translations_at,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ConstantIntersectionReport",
    "Field",
    "FigueroaBundle",
    "FigueroaVerification",
    "Incidence",
    "OnanResult",
    "PermGroup",
    "ProjectivePlane",
    "SharpTransitivityReport",
    "SubunitalReport",
    "TranslationAtlas",
    "Unital",
    "ValidationReport",
    "build_atlas",
    "classify",
    "constant_intersection_check",
    "figueroa_bundle",
    "format_unital",
    "generalized_dihedral_check",
    "hermitian_restriction",
    "hermitian_unital",
    "ideal_embedding_check",
    "is_translation",
    "is_transitive",
    "is_two_transitive",
    "isomorphism_search",
    "make_field",
    "onan_search",
    "orbit_congruence_check",
    "parse_unital",
    "prime_power",
    "projective_plane",
    "read_unital",
    "restrict_to",
    "sharply_transitive_suite",
    "subunital_analysis",
    "translation_transitivity_check",
    "translations_at",
    "unique_involution_check",
    "validate_unital",
    "verify_figueroa_theorems",
]
