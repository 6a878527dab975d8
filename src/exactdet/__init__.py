"""Exact rational determinants, minors, Pfaffians, and identity verification."""

from .core import (
    Matrix,
    Scalar,
    as_vector,
    augment_columns,
    format_scalar,
    index_set,
    parse_scalar,
    scalar,
    submatrix_delete,
)
from .engines import (
    DodgsonResult,
    complementary_minor,
    det_bareiss,
    det_dodgson,
    det_laplace,
    first_minor,
    signed_cofactor,
)
from .jacobi import (
    IdentityReport,
    generalized_pluecker_residual,
    jacobi_residual,
    minor_three_term_residual,
    verify_all_jacobi,
)
from .matfile import (
    emit_matrix_json,
    emit_matrix_text,
    parse_matrix,
    parse_matrix_json,
    parse_matrix_text,
)
from .pfaffian import (
    AntisymmetricMatrix,
    antisymmetric_from_matrix,
    antisymmetric_from_upper,
    determinant_embedding,
    embedded_minor,
    embedding_labels,
    jacobi_recurrence_residual,
    pfaffian,
    pfaffian_square_residual,
)
from .pluecker import (
    SplitTerm,
    pluecker_sum,
    pluecker_terms,
    split_enumeration,
    three_term_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricMatrix",
    "DodgsonResult",
    "IdentityReport",
    "Matrix",
    "Scalar",
    "SplitTerm",
    "antisymmetric_from_matrix",
    "antisymmetric_from_upper",
    "as_vector",
    "augment_columns",
    "complementary_minor",
    "det_bareiss",
    "det_dodgson",
    "det_laplace",
    "determinant_embedding",
    "embedded_minor",
    "embedding_labels",
    "emit_matrix_json",
    "emit_matrix_text",
    "first_minor",
    "format_scalar",
    "generalized_pluecker_residual",
    "index_set",
    "jacobi_recurrence_residual",
    "jacobi_residual",
    "minor_three_term_residual",
    "parse_matrix",
    "parse_matrix_json",
    "parse_matrix_text",
    "parse_scalar",
    "pfaffian",
    "pfaffian_square_residual",
    "pluecker_sum",
    "pluecker_terms",
    "scalar",
    "signed_cofactor",
    "split_enumeration",
    "submatrix_delete",
    "three_term_residual",
    "verify_all_jacobi",
]
