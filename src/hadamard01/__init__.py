"""Hadamard matrices in {0,1} form: generation, verification, conversion.

The public surface re-exports the domain types and the operations most
callers need; the submodules hold the full API.
"""

from .core import (
    BitMatrix,
    HadamardError,
    InternalInvariantViolation,
    InvalidOrder,
    LengthMismatch,
    NonCanonicalRow,
    NotHadamard,
    NotNormalized,
    OrderTooLarge,
    SearchParams,
    SignMatrix,
    dot,
    validate_order,
)
from .generator import GenConfig, initial_rows, iter_matrices
from .gram import gram_cols, gram_rows, is_hadamard_zo
from .partition import (
    GroupList,
    LastRecord,
    PartitionMatrix,
    canonicalize,
    decode_matrix,
    decode_row,
    encode_matrix,
    encode_row,
)
from .presentation import normalize, pm_from_zo, verify_sign_hadamard, zo_from_pm

__all__ = [
    "BitMatrix",
    "GenConfig",
    "GroupList",
    "HadamardError",
    "InternalInvariantViolation",
    "InvalidOrder",
    "LastRecord",
    "LengthMismatch",
    "NonCanonicalRow",
    "NotHadamard",
    "NotNormalized",
    "OrderTooLarge",
    "PartitionMatrix",
    "SearchParams",
    "SignMatrix",
    "canonicalize",
    "decode_matrix",
    "decode_row",
    "dot",
    "encode_matrix",
    "encode_row",
    "gram_cols",
    "gram_rows",
    "initial_rows",
    "is_hadamard_zo",
    "iter_matrices",
    "normalize",
    "pm_from_zo",
    "validate_order",
    "verify_sign_hadamard",
    "zo_from_pm",
]

__version__ = "0.1.0"
