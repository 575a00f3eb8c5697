"""2-periodic complexes of free modules over the local ring and the
operations of their homotopy category.

Storage convention: a complex is the pair (d0, d1) with d0 the even
differential F0 -> F1 (an r1 x r0 matrix) and d1 the odd differential
F1 -> F0 (r0 x r1); both composites vanish.

Sign conventions (normative for everything downstream):

* shift negates both differentials and swaps the degrees; shift is its
  own inverse on the nose since the period is 2;
* the dual X* = Hom(X, R) has d0* = -d1^T and d1* = +d0^T (the sign
  (-1)^(n+1) of the dual differential evaluated at n = 0, 1);
* the 2-periodic tensor applies the Koszul rule
  d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy;
* the 2-periodic Hom complex applies d(f) = d_Y f - (-1)^|f| f d_X,
  so degree-0 cycles are exactly the 2-periodic chain maps and
  degree-0 boundaries the null-homotopic ones;
* cone(f)^n = X^(n+1) + Y^n with d(x, y) = (-dx, dy - f(x)).

Hom and tensor blocks are flattened column-major (domain index outer),
matching :func:`periodica.matrix.RMatrix.vec` and ``kron``.  The Hom-complex
differentials are assembled entry by entry, each signed entry of d_Y and
d_X^T placed at its index; the Kronecker/block formula they equal is kept
as the reference in the tests.  The same writer also assembles the
tensor product and the triangle-comparison system of ``verify_triangle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import smith
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidChainMapError,
    NotAComplexError,
)
from .fields import FieldSpec
from .localring import LocalElem, format_element, zero
from .matrix import RMatrix, block, block_diag, commutation_matrix, vstack
from .smith import homology_invariants, solve_over_ring


@dataclass(frozen=True)
class ComplexViolation:
    """Location of a nonzero entry in a composite that should vanish."""

    composite: str  # "d1*d0" or "d0*d1"
    row: int
    col: int
    value: LocalElem

    def __str__(self) -> str:
        return f"{self.composite} has nonzero entry at ({self.row}, {self.col})"


@dataclass(frozen=True)
class TwoPeriodicComplex:
    """Ranks (r0, r1) and differentials d0: F0->F1, d1: F1->F0."""

    field: FieldSpec
    r0: int
    r1: int
    d0: RMatrix
    d1: RMatrix

    def __post_init__(self) -> None:
        if (self.d0.rows, self.d0.cols) != (self.r1, self.r0):
            raise DimensionMismatchError("d0 must be r1 x r0")
        if (self.d1.rows, self.d1.cols) != (self.r0, self.r1):
            raise DimensionMismatchError("d1 must be r0 x r1")
        if self.d0.field != self.field or self.d1.field != self.field:
            raise FieldMismatchError("differentials over a different field")

    @property
    def total_rank(self) -> int:
        return self.r0 + self.r1


def validate_complex(x: TwoPeriodicComplex) -> Optional[ComplexViolation]:
    """Check both zero-composite identities exactly; None when valid."""
    c = x.d1 @ x.d0
    pos = c.first_nonzero()
    if pos is not None:
        return ComplexViolation("d1*d0", pos[0], pos[1], c.at(*pos))
    c = x.d0 @ x.d1
    pos = c.first_nonzero()
    if pos is not None:
        return ComplexViolation("d0*d1", pos[0], pos[1], c.at(*pos))
    return None


def _checked(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    v = validate_complex(x)
    if v is not None:
        raise NotAComplexError(str(v))
    return x


def zero_complex(field: FieldSpec) -> TwoPeriodicComplex:
    z = RMatrix.zeros(field, 0, 0)
    return TwoPeriodicComplex(field, 0, 0, z, z)


def make_complex(field: FieldSpec, d0: RMatrix, d1: RMatrix) -> TwoPeriodicComplex:
    """Build and validate a complex from its two differentials."""
    return _checked(TwoPeriodicComplex(field, d0.cols, d0.rows, d0, d1))


@dataclass(frozen=True)
class ChainMap2:
    """Degree-0 2-periodic map; construction verifies both commuting squares."""

    src: TwoPeriodicComplex
    dst: TwoPeriodicComplex
    f0: RMatrix
    f1: RMatrix

    def __post_init__(self) -> None:
        if self.src.field != self.dst.field:
            raise FieldMismatchError("chain map between different fields")
        if (self.f0.rows, self.f0.cols) != (self.dst.r0, self.src.r0):
            raise DimensionMismatchError("f0 must be dst.r0 x src.r0")
        if (self.f1.rows, self.f1.cols) != (self.dst.r1, self.src.r1):
            raise DimensionMismatchError("f1 must be dst.r1 x src.r1")
        _require_equal(self.f1 @ self.src.d0, self.dst.d0 @ self.f0, "f1 d0 != d0 f0")
        _require_equal(self.f0 @ self.src.d1, self.dst.d1 @ self.f1, "f0 d1 != d1 f1")

    def is_zero(self) -> bool:
        return self.f0.is_zero() and self.f1.is_zero()


def _require_equal(lhs: RMatrix, rhs: RMatrix, square: str) -> None:
    """Raise InvalidChainMapError at the first entry where the two
    products of a commuting square differ.  Entries are canonical, so
    equal values are equal entries."""
    if lhs.entries == rhs.entries:
        return
    k = next(k for k, (a, b) in enumerate(zip(lhs.entries, rhs.entries))
             if a != b)
    i, j = divmod(k, lhs.cols)
    raise InvalidChainMapError(
        f"{square} at ({i}, {j}): {format_element(lhs.entries[k])} != "
        f"{format_element(rhs.entries[k])}")


@dataclass(frozen=True)
class Homotopy2:
    """Degree -1 data: s0: F0_src -> F1_dst and s1: F1_src -> F0_dst."""

    src: TwoPeriodicComplex
    dst: TwoPeriodicComplex
    s0: RMatrix
    s1: RMatrix

    def __post_init__(self) -> None:
        if (self.s0.rows, self.s0.cols) != (self.dst.r1, self.src.r0):
            raise DimensionMismatchError("s0 must be dst.r1 x src.r0")
        if (self.s1.rows, self.s1.cols) != (self.dst.r0, self.src.r1):
            raise DimensionMismatchError("s1 must be dst.r0 x src.r1")

    def boundary(self) -> tuple:
        """The pair (d s + s d) in degrees 0 and 1 that this data witnesses."""
        b0 = self.dst.d1 @ self.s0 + self.s1 @ self.src.d0
        b1 = self.dst.d0 @ self.s1 + self.s0 @ self.src.d1
        return b0, b1

    def witnesses(self, f: ChainMap2) -> bool:
        b0, b1 = self.boundary()
        return b0.entries == f.f0.entries and b1.entries == f.f1.entries


@dataclass(frozen=True)
class Triangle:
    """Candidate triangle N -> E -> M -> N[1] built from chain maps."""

    n: TwoPeriodicComplex
    e: TwoPeriodicComplex
    m: TwoPeriodicComplex
    f: ChainMap2
    g: ChainMap2
    h: ChainMap2

    def __post_init__(self) -> None:
        if self.f.src != self.n or self.f.dst != self.e:
            raise DimensionMismatchError("f must run N -> E")
        if self.g.src != self.e or self.g.dst != self.m:
            raise DimensionMismatchError("g must run E -> M")
        if self.h.src != self.m or self.h.dst != shift(self.n):
            raise DimensionMismatchError("h must run M -> N[1]")


@dataclass(frozen=True)
class HomModule:
    """Hom in the homotopy category as an R-module with lifted generators."""

    src: TwoPeriodicComplex
    dst: TwoPeriodicComplex
    factors: tuple
    free_rank: int
    generators: tuple  # ChainMap2 lifts, torsion factors first

    def length(self):
        if self.free_rank:
            return math.inf
        return sum(self.factors)


# ---------------------------------------------------------------------------
# chain map helpers


def identity_map(x: TwoPeriodicComplex) -> ChainMap2:
    return ChainMap2(x, x, RMatrix.identity(x.field, x.r0),
                     RMatrix.identity(x.field, x.r1))


def zero_map(src: TwoPeriodicComplex, dst: TwoPeriodicComplex) -> ChainMap2:
    return ChainMap2(src, dst, RMatrix.zeros(src.field, dst.r0, src.r0),
                     RMatrix.zeros(src.field, dst.r1, src.r1))


def compose(outer: ChainMap2, inner: ChainMap2) -> ChainMap2:
    """outer after inner."""
    if inner.dst != outer.src:
        raise DimensionMismatchError("composition endpoints do not match")
    return ChainMap2(inner.src, outer.dst,
                     outer.f0 @ inner.f0, outer.f1 @ inner.f1)


def add_maps(f: ChainMap2, g: ChainMap2) -> ChainMap2:
    if f.src != g.src or f.dst != g.dst:
        raise DimensionMismatchError("sum of maps with different endpoints")
    return ChainMap2(f.src, f.dst, f.f0 + g.f0, f.f1 + g.f1)


def sub_maps(f: ChainMap2, g: ChainMap2) -> ChainMap2:
    return add_maps(f, negate_map(g))


def negate_map(f: ChainMap2) -> ChainMap2:
    return ChainMap2(f.src, f.dst, -f.f0, -f.f1)


def scale_map(f: ChainMap2, c: LocalElem) -> ChainMap2:
    return ChainMap2(f.src, f.dst, f.f0.scale(c), f.f1.scale(c))


def shift_map(f: ChainMap2) -> ChainMap2:
    """f[1]: X[1] -> Y[1]; components swap because degrees do."""
    return ChainMap2(shift(f.src), shift(f.dst), f.f1, f.f0)


def sum_map(f: ChainMap2, g: ChainMap2) -> ChainMap2:
    """Block-diagonal direct sum of two chain maps."""
    field = f.src.field
    return ChainMap2(
        direct_sum(f.src, g.src), direct_sum(f.dst, g.dst),
        block_diag(field, [f.f0, g.f0]), block_diag(field, [f.f1, g.f1]))


# ---------------------------------------------------------------------------
# functors and constructions


def shift(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """X[1]: degrees swap, both differentials are negated."""
    return TwoPeriodicComplex(x.field, x.r1, x.r0, -x.d1, -x.d0)


def dual(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """X* = Hom(X, R) with d0* = -d1^T, d1* = +d0^T."""
    return TwoPeriodicComplex(x.field, x.r0, x.r1,
                              -x.d1.transpose(), x.d0.transpose())


def direct_sum(*xs: TwoPeriodicComplex) -> TwoPeriodicComplex:
    if not xs:
        raise ValueError("direct_sum needs at least one summand")
    field = xs[0].field
    for x in xs:
        if x.field != field:
            raise FieldMismatchError("direct sum over different fields")
    d0 = block_diag(field, [x.d0 for x in xs])
    d1 = block_diag(field, [x.d1 for x in xs])
    return TwoPeriodicComplex(field, sum(x.r0 for x in xs),
                              sum(x.r1 for x in xs), d0, d1)


def _hom_differential(x: TwoPeriodicComplex, a: RMatrix, d: RMatrix,
                      negate: bool) -> RMatrix:
    """The block matrix [[I_X0 (x) a, +-d0_X^T (x) I], [+-d1_X^T (x) I,
    I_X1 (x) d]] of a Hom-complex differential, a being m x k and d
    k x m, written entry by entry."""
    xr0, xr1 = x.r0, x.r1
    m, k = a.rows, d.rows
    rows, cols = xr0 * m + xr1 * k, xr0 * k + xr1 * m
    out = [zero(x.field)] * (rows * cols)
    top, left = xr0 * m, xr0 * k  # first row / column of the X1 blocks
    ae, de = a.entries, d.entries
    for s in range(xr0):
        for i in range(m):
            at = (s * m + i) * cols + s * k
            out[at:at + k] = ae[i * k:(i + 1) * k]
    for s in range(xr1):
        for i in range(k):
            at = (top + s * k + i) * cols + left + s * m
            out[at:at + m] = de[i * m:(i + 1) * m]
    # entry (c, s) of d0_X (xr1 x xr0) repeats along the diagonal of the
    # m x m block (s, c); entry (c, s) of d1_X (xr0 x xr1) along that of
    # the k x k block (s, c)
    for t, e in enumerate(x.d0.entries):
        if e:
            c, s = divmod(t, xr0)
            e = -e if negate else e
            for i in range(m):
                out[(s * m + i) * cols + left + c * m + i] = e
    for t, e in enumerate(x.d1.entries):
        if e:
            c, s = divmod(t, xr1)
            e = -e if negate else e
            for i in range(k):
                out[(top + s * k + i) * cols + c * k + i] = e
    return RMatrix(x.field, rows, cols, tuple(out))


def _homc_blocks(x: TwoPeriodicComplex, y: TwoPeriodicComplex):
    # degree 0 basis: Hom(X0,Y0) + Hom(X1,Y1); degree 1: Hom(X0,Y1) + Hom(X1,Y0)
    # d0 (f0, f1) = (d0_Y f0 - f1 d0_X,  d1_Y f1 - f0 d1_X)
    # d1 (g0, g1) = (d1_Y g0 + g1 d0_X,  d0_Y g1 + g0 d1_X)
    return (_hom_differential(x, y.d0, y.d1, negate=True),
            _hom_differential(x, y.d1, y.d0, negate=False))


def homc(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """2-periodic Hom complex; degree-0 cycles are the chain maps X -> Y."""
    if x.field != y.field:
        raise FieldMismatchError("Hom over different fields")
    d0, d1 = _homc_blocks(x, y)
    return _checked(TwoPeriodicComplex(
        x.field, x.r0 * y.r0 + x.r1 * y.r1, x.r0 * y.r1 + x.r1 * y.r0, d0, d1))


def tensor2(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """2-periodic tensor product with Koszul signs, X-index outer: the
    differentials of Hom(X*, Y) with the degree-1 summand X1 (x) Y0
    negated (rows of d0, columns of d1 from x.r0 * y.r1 on)."""
    if x.field != y.field:
        raise FieldMismatchError("tensor over different fields")
    h0, h1 = _homc_blocks(dual(x), y)
    cut = x.r0 * y.r1
    e0 = h0.entries
    d0 = RMatrix(x.field, h0.rows, h0.cols, e0[:cut * h0.cols]
                 + tuple(-e for e in e0[cut * h0.cols:]))
    d1 = RMatrix(x.field, h1.rows, h1.cols, tuple(
        -e if k % h1.cols >= cut else e for k, e in enumerate(h1.entries)))
    return _checked(TwoPeriodicComplex(
        x.field, x.r0 * y.r0 + x.r1 * y.r1, x.r0 * y.r1 + x.r1 * y.r0, d0, d1))


def delta_iso(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> ChainMap2:
    """The comparison map Y (x) X* -> Hom(X, Y), y (x) phi -> (v -> phi(v) y).

    With this package's sign conventions it is a signless permutation of
    basis elements in each degree; constructing the ChainMap2 verifies
    both commuting squares exactly.
    """
    field = x.field
    t = tensor2(y, dual(x))
    h = homc(x, y)
    d0 = block_diag(field, [
        commutation_matrix(field, y.r0, x.r0),
        commutation_matrix(field, y.r1, x.r1),
    ])
    z01 = RMatrix.zeros(field, x.r0 * y.r1, y.r0 * x.r1)
    z10 = RMatrix.zeros(field, x.r1 * y.r0, y.r1 * x.r0)
    d1 = block(field, [
        [z01, commutation_matrix(field, y.r1, x.r0)],
        [commutation_matrix(field, y.r0, x.r1), z10],
    ])
    return ChainMap2(t, h, d0, d1)


def cone(f: ChainMap2):
    """Mapping cone with the inclusion u: Y -> cone and projection
    v: cone -> X[1], v(x, y) = -x.  Returns (cone, u, v)."""
    x, y = f.src, f.dst
    field = x.field
    d0 = block(field, [
        [-x.d1, RMatrix.zeros(field, x.r0, y.r0)],
        [-f.f1, y.d0],
    ])
    d1 = block(field, [
        [-x.d0, RMatrix.zeros(field, x.r1, y.r1)],
        [-f.f0, y.d1],
    ])
    c = _checked(TwoPeriodicComplex(field, x.r1 + y.r0, x.r0 + y.r1, d0, d1))
    u = ChainMap2(y, c,
                  vstack(field, [RMatrix.zeros(field, x.r1, y.r0),
                                 RMatrix.identity(field, y.r0)]),
                  vstack(field, [RMatrix.zeros(field, x.r0, y.r1),
                                 RMatrix.identity(field, y.r1)]))
    sx = shift(x)
    v0 = block(field, [[-RMatrix.identity(field, x.r1),
                        RMatrix.zeros(field, x.r1, y.r0)]])
    v1 = block(field, [[-RMatrix.identity(field, x.r0),
                        RMatrix.zeros(field, x.r0, y.r1)]])
    v = ChainMap2(c, sx, v0, v1)
    return c, u, v


def cohomology(x: TwoPeriodicComplex):
    """(H0, H1) = (ker d0 / im d1, ker d1 / im d0) as subquotient modules."""
    h0 = homology_invariants(x.d0, x.d1)
    h1 = homology_invariants(x.d1, x.d0)
    return h0, h1


def is_null_homotopic(f: ChainMap2) -> Optional[Homotopy2]:
    """Solve f = d s + s d over R; returns a re-verified witness or None."""
    x, y = f.src, f.dst
    d1h = _hom_differential(x, y.d1, y.d0, negate=False)
    b = vstack(x.field, [f.f0.vec(), f.f1.vec()])
    sol = solve_over_ring(d1h, b)
    if sol is None:
        return None
    n0 = x.r0 * y.r1
    s0 = RMatrix.unvec(x.field, sol.submatrix(0, n0, 0, 1), y.r1, x.r0)
    s1 = RMatrix.unvec(x.field, sol.submatrix(n0, sol.rows, 0, 1), y.r0, x.r1)
    h = Homotopy2(x, y, s0, s1)
    if not h.witnesses(f):
        raise AssertionError("homotopy witness failed re-verification")
    return h


def homotopic(f: ChainMap2, g: ChainMap2) -> Optional[Homotopy2]:
    return is_null_homotopic(sub_maps(f, g))


def hom_module(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> HomModule:
    """H0 of the Hom complex: Hom in the homotopy category, with each
    generator unflattened into an honest (re-validated) chain map."""
    h = homc(x, y)  # validates d0 d1 = 0, the precondition below
    pres = smith._homology_invariants(h.d0, h.d1, smith.smith_normal_form(h.d0))
    n0 = x.r0 * y.r0
    gens = []
    for col in pres.generators:
        f0 = RMatrix.unvec(x.field, col.submatrix(0, n0, 0, 1), y.r0, x.r0)
        f1 = RMatrix.unvec(x.field, col.submatrix(n0, col.rows, 0, 1), y.r1, x.r1)
        gens.append(ChainMap2(x, y, f0, f1))
    return HomModule(x, y, pres.factors, pres.free_rank, tuple(gens))
