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
matching :func:`periodica.matrix.RMatrix.unvec`.  The Hom-complex
differentials are assembled entry by entry, each signed entry of d_Y and
d_X^T placed at its index; the Kronecker/block formula they equal is
kept as the reference in the tests (``oracles.kron``).  The same writer
also assembles the tensor product.

Where invariants are checked: constructors check, derived values skip.
The constructors of ``TwoPeriodicComplex`` (d1 d0 = 0 and d0 d1 = 0),
``ChainMap2`` (both commuting squares) and ``BlockSumCertificate`` check
their data, and every value built from raw matrices goes through them:
parsed input, ``cone``, conjugated complexes, one map of the Smith basis
pair of ``minimal._split`` (with p q = I the split's one proof, which no
later check repeats), the Smith-route Hom generators and ``delta_iso``.
A value that exact algebra makes valid when its inputs are is built by
``_unchecked``, without the check: a complex derived from complexes
(shift, dual, sums, Hom and tensor complexes, model sums, trivial
complexes) or from quasi-periodic data whose composites ``strictify``
checked, a map derived from chain maps (identities, composites,
negatives, multiples and shifts, the inverse of a checked isomorphism,
the closed-form Hom generators Q_Y g P_X) and a certificate derived from
checked maps.  A shifted map f[1] runs between the shifted ends that its
caller passes to ``shift_map``, which neither rebuilds them nor compares
them with shift(X) and shift(Y), and checks only their ranks: the AR
layer passes the complexes its certificates carry, so each shifted
complex is built once.  ``UNCHECKED_CALLERS`` in
``tests/test_source_imports.py`` is the one list of the helpers that do
so, and the lint there holds the package to it.

Model block sums live in label coordinates in ``models``: the degree
index of each label, the differentials of a block sum and one entry per
ordered label pair, with the Hom factor, the generator and the standard
homotopy.  Both closed forms below read that one entry; this module
builds the maps from it, each cell by cell through
``RMatrix.from_cells``, and transports them along the certificates.

Null-homotopy has one path, the closed form on block-sum certificates.
A certificate names X as a block sum B of the models K(j), K(j)[1], R
and R[1] and carries checked maps P: X -> B and Q: B -> X, plus a
contraction of id - Q P.  ``is_null_homotopic`` called without
certificates classifies both ends (once when they are equal), free
summands included; ``classify.decompose`` builds the certificate of the
minimal model of a finite-length complex,
``classify.decomposition_certificate`` moves it to the input,
``classify.model_certificate`` is the identity certificate of a model
block sum, and ``shifted`` carries a certificate to X[1].  f is
null-homotopic when every block r g of P_Y f Q_X has r in x^v R, and
the witness is still re-checked by ``Homotopy2.witnesses``.  Inputs
with trivial summands have certificates with a contraction, so the
contraction terms of the witness run on every such null test.

Hom has two routes.  Called with no certificates, ``hom_module`` takes
the Smith form of the Hom complex.  Called with a pair of block-sum
certificates (one for the source, one for the target), free labels R
and R[1] included, Hom(X, Y) has one summand R/x^v per pair of labels
with a nonzero ``models`` entry, free when v is infinite, generated by
Q_Y g P_X.  The CLI takes the first route; the AR layer passes only
certificates without a contraction (decompositions of K(i) and K(i)[1],
and model block sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidChainMapError,
    NotAComplexError,
    SizeLimitError,
    ValidationError,
)
from .fields import FieldSpec
from .localring import LocalElem, format_element, x_power, x_shift, zero
from .matrix import (
    RMatrix,
    block,
    block_diag,
    commutation_matrix,
    product_first_nonzero,
    vstack,
)
from .models import block_sum, hom_pairs, label_pairs
from .smith import SubquotientModule, homology_invariants, smith_normal_form

# Most entries of one Hom-complex differential that are built: 2^20 list
# slots are 8 MB of references.  Hom(X, X) for X of ranks (r, r) has 4 r^4
# entries per differential, so ranks up to (22, 22) pass; (60, 60), a
# 36 KB document of zeros, would need 52M.
MAX_HOM_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TwoPeriodicComplex:
    """Ranks (r0, r1) and differentials d0: F0->F1, d1: F1->F0 with
    d1 d0 = 0 and d0 d1 = 0.  The constructor checks both composites a
    row at a time without forming them (``matrix.product_first_nonzero``,
    on the product kernel that ``@`` runs, each cell reduced once) and
    names the first nonzero entry; complexes derived from complexes skip
    it (module docstring)."""

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
        for name, a, b in (("d1*d0", self.d1, self.d0),
                           ("d0*d1", self.d0, self.d1)):
            pos = product_first_nonzero(a, b)
            if pos is not None:
                raise NotAComplexError(f"{name} has nonzero entry at {pos}")

    @property
    def total_rank(self) -> int:
        return self.r0 + self.r1


@dataclass(frozen=True)
class ChainMap2:
    """Degree-0 2-periodic map.  The constructor verifies both commuting
    squares; maps derived from checked ones skip it (module docstring)."""

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


@dataclass(frozen=True)
class BlockSumCertificate:
    """A homotopy equivalence between X and the block sum B of the model
    complexes named by ``labels``, (j, shifted) pairs in block order; j = 0
    names the free summands R and R[1] (``_model_sum``).

    ``to_blocks`` P: X -> B and ``from_blocks`` Q: B -> X satisfy P Q = I
    in each degree, and ``contraction`` h witnesses id_X - Q P = d h + h d.
    h is None when X and B have equal ranks: then P and Q are square and
    P Q = I gives Q P = I.  The constructor checks all of it, so answers
    read off the labels rest on verified identities; ``shifted`` and
    ``classify.model_certificate`` build certificates that are valid by
    construction without it.
    """

    labels: tuple
    to_blocks: ChainMap2
    from_blocks: ChainMap2
    contraction: Optional[Homotopy2] = None

    def __post_init__(self) -> None:
        p, q, h = self.to_blocks, self.from_blocks, self.contraction
        x, b = p.src, p.dst
        if q.src != b or q.dst != x:
            raise DimensionMismatchError("certificate maps must run X -> B -> X")
        if b != _model_sum(x.field, self.labels):
            raise ValidationError("certificate labels do not name its block sum")
        if (p.f0 @ q.f0 != RMatrix.identity(x.field, b.r0)
                or p.f1 @ q.f1 != RMatrix.identity(x.field, b.r1)):
            raise ValidationError("certificate maps do not compose to the "
                                  "identity on the block sum")
        if h is None:
            if (x.r0, x.r1) != (b.r0, b.r1):
                raise ValidationError("certificate without a contraction "
                                      "needs X and B of equal ranks")
            return
        if h.src != x or h.dst != x:
            raise DimensionMismatchError("contraction must be a homotopy on X")
        b0, b1 = h.boundary()
        if (b0 != RMatrix.identity(x.field, x.r0) - q.f0 @ p.f0
                or b1 != RMatrix.identity(x.field, x.r1) - q.f1 @ p.f1):
            raise ValidationError("contraction does not witness id - Q P")

    @property
    def complex(self) -> "TwoPeriodicComplex":
        return self.to_blocks.src

    def shifted(self) -> "BlockSumCertificate":
        """The certificate of X[1]: labels flipped, P[1], Q[1] and the
        contraction (-h1, -h0).  X and B are shifted once each, and once
        in all when X is B (a model block sum's identity certificate)."""
        h = self.contraction
        x, b = self.complex, self.to_blocks.dst
        sx = shift(x)
        sb = sx if b is x else shift(b)
        return _unchecked(
            BlockSumCertificate, tuple((j, not s) for j, s in self.labels),
            shift_map(self.to_blocks, sx, sb),
            shift_map(self.from_blocks, sb, sx),
            None if h is None else Homotopy2(sx, sx, -h.s1, -h.s0))


# ---------------------------------------------------------------------------
# chain map helpers


def _unchecked(cls, *values):
    """An instance of the frozen dataclass ``cls`` with ``values`` as its
    fields in order, built without running ``__post_init__``.  Only for
    results that exact algebra makes valid (see "Where invariants are
    checked" above); ``tests/test_source_imports.py`` names its callers."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def identity_map(x: TwoPeriodicComplex) -> ChainMap2:
    return _unchecked(ChainMap2, x, x, RMatrix.identity(x.field, x.r0),
                      RMatrix.identity(x.field, x.r1))


def compose(outer: ChainMap2, inner: ChainMap2) -> ChainMap2:
    """outer after inner."""
    if inner.dst != outer.src:
        raise DimensionMismatchError("composition endpoints do not match")
    return _unchecked(ChainMap2, inner.src, outer.dst,
                      outer.f0 @ inner.f0, outer.f1 @ inner.f1)


def negate_map(f: ChainMap2) -> ChainMap2:
    return _unchecked(ChainMap2, f.src, f.dst, -f.f0, -f.f1)


def scale_map(f: ChainMap2, c: LocalElem) -> ChainMap2:
    return _unchecked(ChainMap2, f.src, f.dst, f.f0.scale(c), f.f1.scale(c))


def shift_map(f: ChainMap2, sx: TwoPeriodicComplex,
              sy: TwoPeriodicComplex) -> ChainMap2:
    """f[1]: X[1] -> Y[1] between ``sx`` = X[1] and ``sy`` = Y[1], the
    shifted ends that the caller holds; components swap because degrees
    do.  The ends are not rebuilt or compared with shift(X) and shift(Y)
    (module docstring); only their ranks are checked."""
    if (sx.r0, sx.r1, sy.r0, sy.r1) != (f.src.r1, f.src.r0, f.dst.r1, f.dst.r0):
        raise DimensionMismatchError("shifted ends do not have the swapped ranks")
    return _unchecked(ChainMap2, sx, sy, f.f1, f.f0)


# ---------------------------------------------------------------------------
# functors and constructions


def shift(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """X[1]: degrees swap, both differentials are negated."""
    return _unchecked(TwoPeriodicComplex, x.field, x.r1, x.r0, -x.d1, -x.d0)


def dual(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """X* = Hom(X, R) with d0* = -d1^T, d1* = +d0^T."""
    return _unchecked(TwoPeriodicComplex, x.field, x.r0, x.r1,
                      -x.d1.transpose(), x.d0.transpose())


def _model_sum(field: FieldSpec, labels) -> TwoPeriodicComplex:
    """Block sum of the model complexes in the order of ``labels``,
    (j, shifted) pairs (``models.block_sum``)."""
    return _unchecked(TwoPeriodicComplex, field, *block_sum(field, labels))


def direct_sum(*xs: TwoPeriodicComplex) -> TwoPeriodicComplex:
    if not xs:
        raise ValueError("direct_sum needs at least one summand")
    field = xs[0].field
    for x in xs:
        if x.field != field:
            raise FieldMismatchError("direct sum over different fields")
    d0 = block_diag(field, [x.d0 for x in xs])
    d1 = block_diag(field, [x.d1 for x in xs])
    return _unchecked(TwoPeriodicComplex, field, sum(x.r0 for x in xs),
                      sum(x.r1 for x in xs), d0, d1)


def _hom_differential(x: TwoPeriodicComplex, a: RMatrix, d: RMatrix,
                      negate: bool) -> RMatrix:
    """The block matrix [[I_X0 (x) a, +-d0_X^T (x) I], [+-d1_X^T (x) I,
    I_X1 (x) d]] of a Hom-complex differential, a being m x k and d
    k x m, written entry by entry.  SizeLimitError, before anything is
    allocated, when it has more than MAX_HOM_ENTRIES entries."""
    xr0, xr1 = x.r0, x.r1
    m, k = a.rows, d.rows
    rows, cols = xr0 * m + xr1 * k, xr0 * k + xr1 * m
    if rows * cols > MAX_HOM_ENTRIES:
        raise SizeLimitError(
            f"Hom-complex differential of {rows} x {cols} = {rows * cols} "
            f"entries exceeds the limit of {MAX_HOM_ENTRIES}")
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
        if e.num:
            c, s = divmod(t, xr0)
            e = -e if negate else e
            for i in range(m):
                out[(s * m + i) * cols + left + c * m + i] = e
    for t, e in enumerate(x.d1.entries):
        if e.num:
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
    """2-periodic Hom complex; degree-0 cycles are the chain maps X -> Y.
    Its composites are d_Y^2 f - f d_X^2, zero because x and y are
    complexes."""
    if x.field != y.field:
        raise FieldMismatchError("Hom over different fields")
    d0, d1 = _homc_blocks(x, y)
    return _unchecked(TwoPeriodicComplex, x.field, x.r0 * y.r0 + x.r1 * y.r1,
                      x.r0 * y.r1 + x.r1 * y.r0, d0, d1)


def tensor2(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """2-periodic tensor product with Koszul signs, X-index outer: the
    differentials of Hom(X*, Y) with the degree-1 summand X1 (x) Y0
    negated (rows of d0, columns of d1 from x.r0 * y.r1 on).  Its
    composites are d_X^2 (x) 1 + 1 (x) d_Y^2, zero because x and y are
    complexes."""
    if x.field != y.field:
        raise FieldMismatchError("tensor over different fields")
    h0, h1 = _homc_blocks(dual(x), y)
    cut = x.r0 * y.r1
    e0 = h0.entries
    d0 = RMatrix(x.field, h0.rows, h0.cols, e0[:cut * h0.cols]
                 + tuple(-e for e in e0[cut * h0.cols:]))
    d1 = RMatrix(x.field, h1.rows, h1.cols, tuple(
        -e if k % h1.cols >= cut else e for k, e in enumerate(h1.entries)))
    return _unchecked(TwoPeriodicComplex, x.field, x.r0 * y.r0 + x.r1 * y.r1,
                      x.r0 * y.r1 + x.r1 * y.r0, d0, d1)


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
    c = TwoPeriodicComplex(field, x.r1 + y.r0, x.r0 + y.r1, d0, d1)
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
    """(H0, H1) = (ker d0 / im d1, ker d1 / im d0) as subquotient modules,
    read off the Smith exponents of d0 and d1 alone.

    R is a DVR, so ker d0 is saturated in F0 (x v in ker d0 forces v in
    ker d0): F0 / ker d0 embeds in the free F1, so it is free and ker d0
    is a summand of rank r0 - rank d0.  im d1 lies in ker d0 (the
    constructor proved d0 d1 = 0), so the torsion of F0 / im d1 lies in
    ker d0 / im d1, and tors H0 = tors coker d1 = the sum of R/x^e over
    the nonzero exponents e of d1; the rest of H0 is free of rank
    r0 - rank d0 - rank d1.  H1 likewise has the nonzero exponents of d0
    and free rank r1 - rank d0 - rank d1.  Neither Smith transform is
    read.
    """
    s0, s1 = smith_normal_form(x.d0), smith_normal_form(x.d1)
    rank = s0.rank + s1.rank
    return (SubquotientModule(tuple([e for e in s1.exponents if e]), x.r0 - rank),
            SubquotientModule(tuple([e for e in s0.exponents if e]), x.r1 - rank))


def is_null_homotopic(f: ChainMap2,
                      certificates: Optional[tuple] = None) -> Optional[Homotopy2]:
    """Solve f = d s + s d over R; returns a re-verified witness or None.

    The decision is read off the valuations of c = P_Y f Q_X block by
    block, for block-sum certificates (of f.src, of f.dst), and the
    witness is s = Q_Y s' P_X + h_Y f + Q_Y P_Y f h_X for the blockwise
    witness s'.  Without certificates both ends are classified first,
    once when they are equal.
    """
    if certificates is None:
        from .classify import _block_sum_certificate
        cx = _block_sum_certificate(f.src)
        certificates = (cx, cx if f.dst == f.src
                        else _block_sum_certificate(f.dst))
    s = _certified_homotopy(f, *certificates)
    if s is None:
        return None
    h = Homotopy2(f.src, f.dst, *s)
    if not h.witnesses(f):
        raise AssertionError("homotopy witness failed re-verification")
    return h


def _check_certificates(cx: BlockSumCertificate, cy: BlockSumCertificate,
                        x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> None:
    for c, comp, end in ((cx, x, "source"), (cy, y, "target")):
        if c.complex is not comp and c.complex != comp:
            raise DimensionMismatchError(f"the certificate of the {end} is "
                                         "for another complex")


def _certified_homotopy(f: ChainMap2, cx: BlockSumCertificate,
                        cy: BlockSumCertificate):
    """(s0, s1) with d s + s d = f, or None: each block r g of
    c = P_Y f Q_X is read in the slot of its ``models`` entry, and r/x^v
    times the entry's standard homotopy is the block of s'."""
    x, y = f.src, f.dst
    _check_certificates(cx, cy, x, y)
    px, qx = cx.to_blocks, cx.from_blocks
    py, qy = cy.to_blocks, cy.from_blocks
    pf0, pf1 = py.f0 @ f.f0, py.f1 @ f.f1
    c = (pf0 @ qx.f0, pf1 @ qx.f1)
    t = ([], [])  # the cells of s'_0 and s'_1
    for a, b, (v, g, h) in label_pairs(cx.labels, cy.labels):
        k = g.index(0)  # r g is read where g is 1
        r = c[k].at(b[k], a[k])
        if not r:
            continue
        if r.valuation < v:
            return None
        # s_h = (-1)^h runs from the degree-h vector of a to the other of b
        q = x_shift(r, -v)
        t[h].append(((b[1 - h], a[h]), -q if h else q))
    s0, s1 = (qd @ RMatrix.from_cells(x.field, qd.cols, pd.rows, cells) @ pd
              for qd, cells, pd in ((qy.f1, t[0], px.f0), (qy.f0, t[1], px.f1)))
    if cy.contraction is not None:
        s0 = s0 + cy.contraction.s0 @ f.f0
        s1 = s1 + cy.contraction.s1 @ f.f1
    if cx.contraction is not None:
        s0 = s0 + qy.f1 @ pf1 @ cx.contraction.s0
        s1 = s1 + qy.f0 @ pf0 @ cx.contraction.s1
    return s0, s1


def hom_module(x: TwoPeriodicComplex, y: TwoPeriodicComplex,
               certificates: Optional[tuple] = None) -> HomModule:
    """H0 of the Hom complex: Hom in the homotopy category, with each
    generator a chain map.

    Without certificates this is the Smith form of the Hom complex, and
    each generator is checked by the ``ChainMap2`` constructor.  With
    block-sum certificates (of x, of y) each pair of labels with a
    nonzero ``models`` entry gives one summand R/x^v, free when v is
    infinite (R or R[1] at both ends), generated by Q_Y g P_X for the
    entry's generator g; the summands come in the order of
    ``models.hom_pairs``, sorted stably by v, so the free generators come
    last, as the Smith path sorts them.  These generators are built
    without a check: Q_Y and P_X are chain maps (checked, or derived from
    checked ones), g is a chain map between the model blocks (the table
    test in tests/test_null_closed_form.py proves every entry through the
    constructor), and a composite of chain maps is one.
    """
    if certificates is None:
        return _smith_hom(x, y)
    cx, cy = certificates
    _check_certificates(cx, cy, x, y)
    px, qy = cx.to_blocks, cy.from_blocks
    pairs = hom_pairs(cx.labels, cy.labels)
    factors = tuple(v for _, _, (v, _, _) in pairs if v != math.inf)
    return HomModule(x, y, factors, len(pairs) - len(factors), tuple(
        _unchecked(ChainMap2, x, y, _outer(qy.f0, b[0], g[0], px.f0, a[0]),
                   _outer(qy.f1, b[1], g[1], px.f1, a[1]))
        for a, b, (_, g, _) in pairs))


def _outer(q: RMatrix, b: int, power: Optional[int], p: RMatrix,
           a: int) -> RMatrix:
    """x^power times column b of q times row a of p, written from its
    nonzero cells; zero when power is None."""
    cells = []
    if power is not None:
        c = x_power(q.field, power)
        col = [(i, c * u) for i in range(q.rows) if (u := q.at(i, b))]
        row = [(j, w) for j in range(p.cols) if (w := p.at(a, j))]
        cells = [((i, j), u * w) for i, u in col for j, w in row]
    return RMatrix.from_cells(q.field, q.rows, p.cols, cells)


def _smith_hom(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> HomModule:
    h = homc(x, y)
    pres, cols = homology_invariants(h.d0, h.d1)
    n0 = x.r0 * y.r0
    gens = []
    for col in cols:
        f0 = RMatrix.unvec(x.field, col.submatrix(0, n0, 0, 1), y.r0, x.r0)
        f1 = RMatrix.unvec(x.field, col.submatrix(n0, col.rows, 0, 1), y.r1, x.r1)
        gens.append(ChainMap2(x, y, f0, f1))
    return HomModule(x, y, pres.factors, pres.free_rank, tuple(gens))
