"""Exact descent of finite isometry groups to odd positive characteristic.

The package builds cyclotomic base fields with a certified prime, balances
group-stable lattices against a nondegenerate form, and reduces the whole
group to the residue field with certificates that characteristic polynomials
survive and that the reduced form keeps the predicted kind and block shape.
A companion module packages boundary examples where the reduction provably
cannot stay faithful, together with finite certificates of that failure.
"""

__version__ = "0.1.0"

from .errors import (
    BundleFormatError,
    CharTwo,
    DegenerateForm,
    DimensionMismatch,
    GroupTooLarge,
    HypothesisViolated,
    InternalInconsistency,
    InvalidDescriptor,
    IsodescentError,
    KindMismatch,
    NegativeValuation,
    NoInvolution,
    NotContained,
    NotFiniteOrder,
    NotStable,
    PreconditionViolated,
    SearchSpaceTooLarge,
    SingularMatrix,
)
from .exactfield import (
    FieldDescriptor,
    FieldElement,
    make_descriptor,
    with_uniformizer,
)
from .lattice import (
    Lattice,
    is_stable,
    lattice_intersect,
    lattice_sum,
    maps_into,
    quotient_length,
    scale_lattice,
    snf,
    stabilize,
    standard_lattice,
)
from .forms import (
    AssembledForm,
    GramForm,
    ResidueForm,
    classify_gram,
    normalize_scale,
    reduce_bar,
    reduce_tilde,
)
from .descent import (
    BalanceResult,
    DescentResult,
    GroupRep,
    balance,
    descend,
    rigidity_check,
)
from .linalg import charpoly
from .counterexamples import (
    NonexistenceCertificate,
    build_prop5_bundle,
    build_prop6_bundle,
    no_invariant_symmetric_form,
    verify_prop5,
    verify_prop6,
)

__all__ = [
    "__version__",
    "AssembledForm",
    "BalanceResult",
    "BundleFormatError",
    "CharTwo",
    "DegenerateForm",
    "DescentResult",
    "DimensionMismatch",
    "FieldDescriptor",
    "FieldElement",
    "GramForm",
    "GroupRep",
    "GroupTooLarge",
    "HypothesisViolated",
    "InternalInconsistency",
    "InvalidDescriptor",
    "IsodescentError",
    "KindMismatch",
    "Lattice",
    "NegativeValuation",
    "NoInvolution",
    "NonexistenceCertificate",
    "NotContained",
    "NotFiniteOrder",
    "NotStable",
    "PreconditionViolated",
    "ResidueForm",
    "SearchSpaceTooLarge",
    "SingularMatrix",
    "balance",
    "build_prop5_bundle",
    "build_prop6_bundle",
    "charpoly",
    "classify_gram",
    "descend",
    "is_stable",
    "lattice_intersect",
    "lattice_sum",
    "make_descriptor",
    "maps_into",
    "no_invariant_symmetric_form",
    "normalize_scale",
    "quotient_length",
    "reduce_bar",
    "reduce_tilde",
    "rigidity_check",
    "scale_lattice",
    "snf",
    "stabilize",
    "standard_lattice",
    "verify_prop5",
    "verify_prop6",
    "with_uniformizer",
]
