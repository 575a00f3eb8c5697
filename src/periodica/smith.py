"""Smith normal form and linear algebra over the local ring, and the
elimination engine that Smith forms, minimal models and decompositions
share.

The engine is :class:`TrackedBasis`: a basis change G of a free module
R^n, applied one elementary step at a time (swap two basis vectors,
scale one by a unit, add a multiple of one to another) with p = G and
q = G^-1 kept exact alongside.  Grids attached as ``rows`` have the
module as codomain and become G m; grids attached as ``cols`` have it
as domain and become m G^-1.  Smith forms, minimal models
(``minimal.reduce``), the K(j)/K(j)[1] split (``classify.decompose``)
and random conjugations (``rand.random_invertible``) are pivot policies
over it, so each certificate is the p and q of its bases.

Smith pivot policy (:func:`smith_sweep`): over k[x]_(x) every nonzero
element is unit * x^v, so one sweep with a minimal-valuation pivot
produces U A V = D, D = diag(x^a1, ..., x^ar, 0, ...) with
a1 <= ... <= ar.  The pivot is the entry of minimal valuation in the
remaining submatrix, ties broken by smallest row then column index, so
the output is deterministic.  The pivot is scaled to x^v, then its
column and its row are cleared.

With the transforms and their exact inverses at hand, solving linear
systems, inverting matrices and presenting subquotients (kernel mod
image) is certificate-grade: every identity can be re-verified by exact
matrix arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CompositeNotZeroError,
    DimensionMismatchError,
    NotInvertibleError,
)
from .fields import FieldSpec
from .localring import inverse, one, unit_part, x_shift, zero
from .matrix import RMatrix


class TrackedBasis:
    """Basis change G of R^n with p = G (old -> current coordinates) and
    q = G^-1, acting on the attached ``rows`` grids (m -> G m) and
    ``cols`` grids (m -> m G^-1) in place."""

    def __init__(self, field: FieldSpec, n: int, rows=(), cols=()) -> None:
        self.field = field
        self.n = n
        self.p = RMatrix.identity(field, n).to_grid()
        self.q = RMatrix.identity(field, n).to_grid()
        self._rows = [self.p, *rows]
        self._cols = [self.q, *cols]

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for g in self._rows:
            g[i], g[j] = g[j], g[i]
        for g in self._cols:
            for row in g:
                row[i], row[j] = row[j], row[i]

    def scale(self, i: int, unit) -> None:
        """G <- diag(1, .., unit, .., 1) G: row i times unit; column i
        times unit**-1."""
        inv = inverse(unit)
        for g in self._rows:
            row = g[i]
            for t, e in enumerate(row):
                if e:
                    row[t] = unit * e
        for g in self._cols:
            for row in g:
                if row[i]:
                    row[i] = inv * row[i]

    def add(self, a: int, b: int, lam) -> None:
        """G <- (I + lam e_ab) G: row a += lam row b; column b -= lam column a."""
        for g in self._rows:
            ra = g[a]
            for c, e in enumerate(g[b]):
                if e:
                    ra[c] = ra[c] + lam * e
        nlam = -lam
        for g in self._cols:
            for row in g:
                e = row[a]
                if e:
                    row[b] = row[b] + nlam * e

    def matrices(self) -> tuple:
        """(G, G^-1) as matrices."""
        n = self.n
        return (RMatrix.from_grid(self.field, n, n, self.p),
                RMatrix.from_grid(self.field, n, n, self.q))


@dataclass(frozen=True)
class SmithForm:
    """u @ a @ v == d exactly; u, v invertible with the stored inverses."""

    u: RMatrix
    d: RMatrix
    v: RMatrix
    u_inv: RMatrix
    v_inv: RMatrix
    exponents: tuple  # valuations a1 <= ... <= ar of the nonzero diagonal

    @property
    def rank(self) -> int:
        return len(self.exponents)


def smith_sweep(work, rows: TrackedBasis, cols: TrackedBasis,
                start: int = 0) -> list:
    """Diagonalise the grid ``work`` from position (start, start) on,
    with ``work`` attached to ``rows`` (its codomain) and ``cols`` (its
    domain); returns the valuations of the diagonal pivots in order."""
    nrows, ncols = rows.n, cols.n
    unit_one = one(rows.field)
    exps = []
    for t in range(start, min(nrows, ncols)):
        # minimal-valuation pivot in the remaining submatrix
        best = None
        best_val = math.inf
        for i in range(t, nrows):
            wrow = work[i]
            for j in range(t, ncols):
                e = wrow[j]
                if e and e.valuation < best_val:
                    best_val = e.valuation
                    best = (i, j)
                    if best_val == 0:
                        break
            if best_val == 0:
                break
        if best is None:
            break
        rows.swap(best[0], t)
        cols.swap(best[1], t)
        pivot = work[t][t]
        pv = pivot.valuation
        unit = unit_part(pivot)
        if unit != unit_one:
            rows.scale(t, inverse(unit))
        # pivot is now exactly x^pv; eliminate its column, then its row
        for i in range(t + 1, nrows):
            e = work[i][t]
            if e:
                rows.add(i, t, -x_shift(e, -pv))
        for j in range(t + 1, ncols):
            e = work[t][j]
            if e:
                cols.add(t, j, x_shift(e, -pv))
        exps.append(pv)
    return exps


def smith_normal_form(a: RMatrix) -> SmithForm:
    work = a.to_grid()
    left = TrackedBasis(a.field, a.rows, rows=[work])
    right = TrackedBasis(a.field, a.cols, cols=[work])
    exps = smith_sweep(work, left, right)
    u, u_inv = left.matrices()
    v_inv, v = right.matrices()
    return SmithForm(u=u, d=RMatrix.from_grid(a.field, a.rows, a.cols, work),
                     v=v, u_inv=u_inv, v_inv=v_inv, exponents=tuple(exps))


def matrix_rank(a: RMatrix) -> int:
    """Rank over the fraction field k(x)."""
    return smith_normal_form(a).rank


def is_invertible(a: RMatrix) -> bool:
    if not a.is_square():
        return False
    s = smith_normal_form(a)
    return s.rank == a.rows and all(e == 0 for e in s.exponents)


def invert(a: RMatrix) -> RMatrix:
    """Inverse over R; exists iff the Smith form is the identity."""
    if not a.is_square():
        raise NotInvertibleError("non-square matrix")
    s = smith_normal_form(a)
    if s.rank != a.rows or any(e != 0 for e in s.exponents):
        raise NotInvertibleError("matrix is not invertible over the local ring")
    return s.v @ s.u


def solve_over_ring(a: RMatrix, b: RMatrix) -> Optional[RMatrix]:
    """Solve a @ x = b exactly over R; None when no solution exists in R.

    Solvability is decided on the Smith form: with u a v = d and c = u b,
    each diagonal row needs x^ai | ci and each zero row needs ci = 0.
    """
    if b.cols != 1 or b.rows != a.rows:
        raise DimensionMismatchError("right-hand side must be a column of matching height")
    s = smith_normal_form(a)
    c = s.u @ b
    field = a.field
    y = [zero(field)] * a.cols
    for t in range(a.rows):
        ct = c.at(t, 0)
        if t < len(s.exponents):
            if not ct:
                continue
            if ct.valuation < s.exponents[t]:
                return None
            y[t] = x_shift(ct, -s.exponents[t])
        elif ct:
            return None
    ycol = RMatrix(field, a.cols, 1, tuple(y))
    return s.v @ ycol


@dataclass(frozen=True)
class SubquotientModule:
    """Presentation of ker(a)/im(b): R/x^f1 + ... + R/x^fk + R^free_rank.

    ``generators`` are columns of the ambient free module lifting the
    cyclic generators (torsion factors first, in the order of ``factors``,
    then the free generators).
    """

    factors: tuple
    free_rank: int
    generators: tuple

    def length(self):
        """k-length; math.inf when a free summand is present."""
        if self.free_rank:
            return math.inf
        return sum(self.factors)

    def is_zero(self) -> bool:
        return not self.factors and self.free_rank == 0


def homology_invariants(a: RMatrix, b: RMatrix) -> SubquotientModule:
    """Invariant factors of ker(a)/im(b) with lifted generators.

    Requires a @ b = 0, checked without forming a @ b: with u a v = d,
    u a b = d (v^-1 b), and the first rank(a) entries of d's diagonal are
    nonzero, so a @ b = 0 exactly when the first rank(a) rows of v^-1 b
    vanish.  a @ b is formed only to name its first nonzero entry when
    that test fails.  The kernel of ``a`` is the free summand spanned by
    the trailing columns of v; the image of ``b`` is rewritten in those
    coordinates and reduced by a second Smith form.
    """
    if a.cols != b.rows:
        raise DimensionMismatchError("ker/im dimensions incompatible")
    s = smith_normal_form(a)
    r = s.rank
    n = a.cols
    kdim = n - r
    kernel_basis = s.v.take_cols(range(r, n))  # n x kdim
    bk = s.v_inv @ b
    if any(bk.entries[:r * b.cols]):
        i, j = (a @ b).first_nonzero()
        raise CompositeNotZeroError(f"composite is nonzero at ({i}, {j})")
    m = bk.submatrix(r, n, 0, b.cols)
    s2 = smith_normal_form(m)
    torsion = [e for e in s2.exponents if e > 0]
    nunits = len(s2.exponents) - len(torsion)
    free_rank = kdim - s2.rank
    gen_indices = list(range(nunits, len(s2.exponents))) + \
        list(range(s2.rank, kdim))
    gens = tuple(kernel_basis @ s2.u_inv.column(i) for i in gen_indices)
    return SubquotientModule(tuple(torsion), free_rank, gens)
