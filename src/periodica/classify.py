"""Classification of finite-length 2-periodic complexes over the DVR.

Every indecomposable with finite-length cohomology is one of the
rank-(1,1) complexes K(j) (odd differential x^j, even differential 0)
or its shift.  ``decompose`` certifies this: the minimal model's odd
differential is put in Smith form, which splits off the unshifted
summands at once (both composites being zero forces the complementary
blocks of the even differential to vanish); the remaining even
differential is then put in Smith form for the shifted summands.  The
accumulated basis changes give mutually inverse isomorphisms in the
strict category between the minimal model and the labelled block sum.

Peeling order: odd differential first, invariants ascending — the
certificate is deterministic.  Inputs whose cohomology is not of finite
length are rejected rather than assigned free labels.

Both stages are ``smith.smith_sweep`` runs over one
``smith.TrackedBasis`` per degree of the minimal model (the second
sweep starts at the rank of the first), and the closing sign flip is a
scaling of the same basis, so the certificates are the bases' p and q.
As in ``minimal``, one product per degree (p q = I) proves the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    ChainMap2,
    TwoPeriodicComplex,
    direct_sum,
    shift,
    zero_complex,
)
from .errors import NotFiniteLengthError, PeriodicaError
from .fields import FieldSpec
from .localring import format_element, one, x_power
from .matrix import RMatrix
from .minimal import SplitResult, reduce
from .smith import (
    TrackedBasis,
    _homology_invariants,
    is_invertible,
    matrix_rank,
    smith_normal_form,
    smith_sweep,
)


@dataclass(frozen=True, order=True)
class IndecompLabel:
    """K(j) when shifted is False, K(j)[1] when True; unshifted sorts first."""

    shifted: bool
    j: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("label index must be >= 1")

    @property
    def name(self) -> str:
        return f"K({self.j})" + ("[1]" if self.shifted else "")


def label(j: int, shifted: bool = False) -> IndecompLabel:
    return IndecompLabel(shifted=shifted, j=j)


@dataclass(frozen=True)
class IndecompMultiset:
    """Canonically sorted multiset of indecomposable labels."""

    items: tuple  # ((IndecompLabel, multiplicity), ...) sorted, mult >= 1

    @staticmethod
    def from_labels(labels: Iterable[IndecompLabel]) -> "IndecompMultiset":
        counts: dict = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        return IndecompMultiset(tuple(sorted(counts.items())))

    def labels(self) -> list:
        out = []
        for lab, mult in self.items:
            out.extend([lab] * mult)
        return out

    def size(self) -> int:
        return sum(m for _, m in self.items)

    def is_singleton(self) -> bool:
        return len(self.items) == 1 and self.items[0][1] == 1

    def h0_length(self) -> int:
        return sum(l.j * m for l, m in self.items if not l.shifted)

    def h1_length(self) -> int:
        return sum(l.j * m for l, m in self.items if l.shifted)

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return " + ".join(
            lab.name if m == 1 else f"{m}*{lab.name}" for lab, m in self.items)


def k_complex(j: int, field: FieldSpec) -> TwoPeriodicComplex:
    """K(j): ranks (1, 1), even differential 0, odd differential x^j."""
    if j < 1:
        raise ValueError("k_complex needs j >= 1")
    z = RMatrix.zeros(field, 1, 1)
    d1 = RMatrix(field, 1, 1, (x_power(field, j),))
    return TwoPeriodicComplex(field, 1, 1, z, d1)


def model_complex(lab: IndecompLabel, field: FieldSpec) -> TwoPeriodicComplex:
    x = k_complex(lab.j, field)
    return shift(x) if lab.shifted else x


def assemble(ms: IndecompMultiset, field: FieldSpec) -> TwoPeriodicComplex:
    """Block sum of the model complexes in canonical label order."""
    labs = ms.labels()
    if not labs:
        return zero_complex(field)
    return direct_sum(*[model_complex(l, field) for l in labs])


def finite_length_cohomology(x: TwoPeriodicComplex) -> bool:
    """True iff both cohomologies are torsion, i.e. the fraction-field
    ranks satisfy rank(d0) + rank(d1) = r0 = r1."""
    if x.r0 != x.r1:
        return False
    return matrix_rank(x.d0) + matrix_rank(x.d1) == x.r0


@dataclass(frozen=True)
class DecomposeResult:
    """Multiset of indecomposables plus exact isomorphism certificates
    between the minimal model and the canonical labelled block sum."""

    multiset: IndecompMultiset
    split: SplitResult
    minimal: TwoPeriodicComplex
    blocksum: TwoPeriodicComplex
    to_blocks: ChainMap2    # minimal -> blocksum
    from_blocks: ChainMap2  # blocksum -> minimal


def decompose(x: TwoPeriodicComplex) -> DecomposeResult:
    # the Smith forms of d0 and d1 give both the finite-length test of
    # finite_length_cohomology and the closing cohomology cross-check
    if x.r0 != x.r1:
        raise NotFiniteLengthError("complex does not have finite-length cohomology")
    s0, s1 = smith_normal_form(x.d0), smith_normal_form(x.d1)
    if s0.rank + s1.rank != x.r0:
        raise NotFiniteLengthError("complex does not have finite-length cohomology")
    field = x.field
    split = reduce(x)
    m = split.minimal
    if m.r0 != m.r1:
        raise PeriodicaError("finite-length minimal model with unequal ranks")
    n = m.r0
    d0, d1 = m.d0.to_grid(), m.d1.to_grid()
    b0 = TrackedBasis(field, n, rows=[d1], cols=[d0])
    b1 = TrackedBasis(field, n, rows=[d0], cols=[d1])

    # stage 1: Smith form of the odd differential peels unshifted summands
    unshifted = smith_sweep(d1, b0, b1)
    r = len(unshifted)
    if any(e < 1 for e in unshifted):
        raise PeriodicaError("minimal model produced a unit invariant factor")
    _assert_split(d0, r)

    # stage 2: Smith form of the remaining even differential (shifted part)
    shifted = smith_sweep(d0, b1, b0, start=r)
    if len(shifted) != n - r or any(e < 1 for e in shifted):
        raise NotFiniteLengthError("even complement is singular or non-minimal")

    # stage 3: flip signs so shifted blocks match shift(K(b)) exactly
    for i in range(r, n):
        b0.scale(i, -one(field))

    labels_ = [IndecompLabel(False, e) for e in unshifted] + \
        [IndecompLabel(True, e) for e in shifted]
    ms = IndecompMultiset.from_labels(labels_)
    blocksum = assemble(ms, field)
    if (blocksum.d0 != RMatrix.from_grid(field, n, n, d0)
            or blocksum.d1 != RMatrix.from_grid(field, n, n, d1)):
        raise PeriodicaError("peeled complex is not the canonical block sum")
    p0, q0 = b0.matrices()
    p1, q1 = b1.matrices()
    to_blocks = ChainMap2(m, blocksum, p0, p1)
    from_blocks = ChainMap2(blocksum, m, q0, q1)
    ident = RMatrix.identity(field, n)
    if p0 @ q0 != ident or p1 @ q1 != ident:
        raise PeriodicaError("decompose certificates do not compose to identity")

    # cohomology cross-check; reduce(x) has checked that x is a complex
    h0 = _homology_invariants(x.d0, x.d1, s0)
    h1 = _homology_invariants(x.d1, x.d0, s1)
    if h0.length() != ms.h0_length() or h1.length() != ms.h1_length():
        raise PeriodicaError("cohomology lengths disagree with the multiset")
    return DecomposeResult(ms, split, m, blocksum, to_blocks, from_blocks)


def _assert_split(d0, r: int) -> None:
    """Both composites vanish, so rows and columns < r of d0 must be zero."""
    for i, row in enumerate(d0):
        for j, e in enumerate(row):
            if (i < r or j < r) and e:
                raise PeriodicaError(
                    "even differential does not respect the split at "
                    f"({i}, {j}): {format_element(e)}")


def is_homotopy_iso(f: ChainMap2) -> bool:
    """Transport f to the minimal models; there an isomorphism in the
    homotopy category has invertible components in both degrees."""
    sx = reduce(f.src)
    sy = reduce(f.dst)
    g0 = sy.back.f0 @ f.f0 @ sx.into.f0
    g1 = sy.back.f1 @ f.f1 @ sx.into.f1
    mx, my = sx.minimal, sy.minimal
    # minimal summand sits first in the block sum coordinates
    g0_min = g0.submatrix(0, my.r0, 0, mx.r0)
    g1_min = g1.submatrix(0, my.r1, 0, mx.r1)
    if (mx.r0, mx.r1) != (my.r0, my.r1):
        return False
    return is_invertible(g0_min) and is_invertible(g1_min)
