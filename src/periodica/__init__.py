"""Exact homological algebra for 2-periodic complexes of finitely
generated free modules over the local ring k[x] localized at (x):
Smith normal forms with certificates, minimal models, classification of
indecomposables, and Auslander-Reiten triangles and quivers.
"""

from .artheory import (
    ARReport,
    ARTriangle,
    QuiverGraph,
    QuiverResult,
    ar_triangle,
    build_quiver,
    quiver_dot,
    serre_functor,
    serre_length_check,
    shift_triangle,
    socle_map,
    verify_ar,
    verify_left_ar,
    verify_right_ar,
)
from .classify import (
    DecomposeResult,
    IndecompLabel,
    IndecompMultiset,
    assemble,
    decompose,
    decomposition_certificate,
    finite_length_cohomology,
    k_complex,
    label,
    model_certificate,
)
from .complexes import (
    BlockSumCertificate,
    ChainMap2,
    HomModule,
    Homotopy2,
    Triangle,
    TwoPeriodicComplex,
    cohomology,
    compose,
    cone,
    delta_iso,
    direct_sum,
    dual,
    hom_module,
    homc,
    identity_map,
    is_null_homotopic,
    negate_map,
    scale_map,
    shift,
    shift_map,
    tensor2,
)
from .errors import (
    CompositeNotZeroError,
    DimensionMismatchError,
    FieldMismatchError,
    InvalidChainMapError,
    NonUnitError,
    NotAComplexError,
    NotDivisibleError,
    NotFiniteLengthError,
    NotInvertibleError,
    NotMinimalError,
    ParseError,
    PeriodicaError,
    SizeLimitError,
    ValidationError,
)
from .fields import FieldSpec
from .localring import (
    LocalElem,
    elem,
    format_element,
    inverse,
    one,
    parse_element,
    unit_part,
    x_power,
    x_shift,
    zero,
)
from .matrix import RMatrix, block, block_diag, commutation_matrix
from .minimal import (
    SplitResult,
    TrivialType,
    is_minimal,
    reduce,
    trivial_complex,
)
from .smith import (
    SmithForm,
    SubquotientModule,
    homology_invariants,
    invert,
    smith_normal_form,
    solve_over_ring,
)
from .strictify import (
    QuasiPeriodicData,
    strictify,
    window_chain_map,
)

__version__ = "0.1.0"
