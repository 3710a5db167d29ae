"""Exact-arithmetic fusion modules over Yangians and twisted Yangians.

Builds the modules attached to skew Young diagrams, the factorized R- and
S-matrices acting on them, and tests irreducibility at rational parameter
points: the leading-Laurent-coefficient witness where it is surjective,
Burnside growth of the generated algebra everywhere else.  All arithmetic is
exact.  The symbolic RatFunc-matrix views of the same operators, kept as
independent references, live in ``twistfusion.reference``, which the
engine never imports.
"""

from .diagrams import SkewDiagram, column_tableau, parse_skew, sharp, ssyt_count
from .exactnum import Poly, RatFunc
from .fusion import FusionOperator, fusion_operator, verify_fusion_invariants
from .irreducibility import (
    AlgebraSpan,
    IrreducibilityReport,
    PhiOperator,
    WallSet,
    burnside,
    commutant_dim,
    phi_leading,
    random_offwall,
    surjectivity,
    verdict,
    walls,
)
from .repmatrix import (
    FusedModuleSpec,
    GeneratorMatrices,
    check_defining_relations,
    duality_check,
    r_factorized,
    s_elementary,
    s_fused,
    s_generators,
)
from .reference import (
    embed_two_leg,
    intertwining_check,
    partial_trace_first,
    permutation_op,
    restrict,
    s_WZ_family,
    t_action,
    yang_matrices,
)
from .tensor import Basis, GForm, TensorOperator, image_basis, structural_ops, transpose_legs

__all__ = [
    "AlgebraSpan",
    "Basis",
    "FusedModuleSpec",
    "FusionOperator",
    "GForm",
    "GeneratorMatrices",
    "IrreducibilityReport",
    "PhiOperator",
    "Poly",
    "RatFunc",
    "SkewDiagram",
    "TensorOperator",
    "WallSet",
    "burnside",
    "check_defining_relations",
    "column_tableau",
    "commutant_dim",
    "duality_check",
    "embed_two_leg",
    "fusion_operator",
    "image_basis",
    "intertwining_check",
    "parse_skew",
    "partial_trace_first",
    "permutation_op",
    "phi_leading",
    "r_factorized",
    "random_offwall",
    "restrict",
    "s_WZ_family",
    "s_elementary",
    "s_fused",
    "s_generators",
    "sharp",
    "ssyt_count",
    "structural_ops",
    "surjectivity",
    "t_action",
    "transpose_legs",
    "verdict",
    "verify_fusion_invariants",
    "walls",
    "yang_matrices",
]

__version__ = "0.1.0"
