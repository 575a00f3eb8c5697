"""Dense matrices over the local ring, with the block helpers and the
commutation matrix used to build 2-periodic tensor and Hom complexes.

Flattening convention: a matrix is flattened column by column (``unvec``
reads such a column back), so the basis element E_{ij} of Hom(V, W) sits
at flat index j*dim(W) + i — the domain index is the outer one, as in
the Kronecker product with the first factor outer.  That product is the
reference the tests hold the Hom-complex writer of ``complexes`` to
(``tests/oracles.py``); the package builds no Kronecker product.

A matrix that is zero but at a few cells, such as a block-sum
differential, a Hom generator or a homotopy in the label coordinates of
``models``, is written by :meth:`RMatrix.from_cells` from its
((row, col), entry) cells, so no module but this one computes where a
cell sits in the row-major ``entries``.

There is one product loop, :func:`_product_rows`, and both ``@`` and
the d^2 = 0 check (:func:`product_first_nonzero`) run it.  It sums one
row of the product at a time over the nonzero entries of a and the
nonzero entries of each row of b, which it lists once per call.  Zeros
are tested by their numerator, ``e.num``: a canonical zero is the one
with an empty numerator, and the test makes no Python-level call.

Each cell is reduced once (Henrici's rule, which ``localring`` follows
for one sum, carried over to a dot product).  A cell with one term is
that term's ``e * f``.  A cell with several sends its polynomial terms
(both denominators 1) to :func:`poly.sum_of_products`, which sums their
products over the field's integers and reduces each coefficient once;
the terms with a denominator are summed in ``LocalElem`` arithmetic, and
the two partial sums meet in one ``+``.  Canonical elements are unique,
so this is the entry of the term-by-term sum, whatever the grouping.

A product with a zero operand (no nonzero entry) or an identity operand
(square, ones on the diagonal, zeros elsewhere, however its entries were
built) does no element arithmetic: it is the zero matrix, or the other
operand itself, which is safe to share since matrices are immutable.
Negation and scaling keep a zero entry as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from . import poly
from .errors import DimensionMismatchError, FieldMismatchError
from .fields import FieldSpec
from .localring import LocalElem, one, zero

Grid = list

_num = attrgetter("num")


@dataclass(frozen=True)
class RMatrix:
    """Immutable rows x cols matrix of LocalElem, row-major."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- builders -----------------------------------------------------------

    @staticmethod
    def build(field: FieldSpec, rows: int, cols: int,
              fn: Callable[[int, int], LocalElem]) -> "RMatrix":
        ents = tuple(fn(i, j) for i in range(rows) for j in range(cols))
        return RMatrix(field, rows, cols, ents)

    @staticmethod
    def from_cells(field: FieldSpec, rows: int, cols: int,
                   cells: Iterable[tuple]) -> "RMatrix":
        """The rows x cols matrix that is zero but at the ((i, j), entry)
        ``cells``, each (i, j) named at most once."""
        ents = [zero(field)] * (rows * cols)
        for (i, j), e in cells:
            ents[i * cols + j] = e
        return RMatrix(field, rows, cols, tuple(ents))

    @staticmethod
    def from_grid(field: FieldSpec, rows: int, cols: int,
                  grid: Sequence[Sequence[LocalElem]]) -> "RMatrix":
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise DimensionMismatchError("grid shape mismatch")
        return RMatrix(field, rows, cols, tuple(e for row in grid for e in row))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "RMatrix":
        ents = [zero(field)] * (n * n)
        ents[::n + 1] = [one(field)] * n
        return RMatrix(field, n, n, tuple(ents))

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "RMatrix":
        z = zero(field)
        return RMatrix(field, rows, cols, (z,) * (rows * cols))

    # -- access -------------------------------------------------------------

    def at(self, i: int, j: int) -> LocalElem:
        return self.entries[i * self.cols + j]

    def to_grid(self) -> Grid:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def submatrix(self, i0: int, i1: int, j0: int, j1: int) -> "RMatrix":
        ents = tuple(
            self.entries[i * self.cols + j]
            for i in range(i0, i1) for j in range(j0, j1))
        return RMatrix(self.field, i1 - i0, j1 - j0, ents)

    def take_cols(self, perm: Sequence[int]) -> "RMatrix":
        ents = tuple(
            self.entries[i * self.cols + pj]
            for i in range(self.rows) for pj in perm)
        return RMatrix(self.field, self.rows, len(perm), ents)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(map(_num, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def all_entries_in_maximal_ideal(self) -> bool:
        return all(e.valuation >= 1 for e in self.entries)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RMatrix") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    def _check_product(self, other: "RMatrix") -> None:
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        ents = tuple(a + b for a, b in zip(self.entries, other.entries))
        return RMatrix(self.field, self.rows, self.cols, ents)

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        return self + (-other)

    def __neg__(self) -> "RMatrix":
        return RMatrix(self.field, self.rows, self.cols,
                       tuple([-e if e.num else e for e in self.entries]))

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        self._check_product(other)
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        if not any(map(_num, a)) or not any(map(_num, b)):
            return RMatrix.zeros(self.field, n, m)
        o = one(self.field)
        if n == k and _is_identity(a, k, o):
            return other
        if k == m and _is_identity(b, k, o):
            return self
        out = [zero(self.field)] * (n * m)
        for i, row in _product_rows(self, other):
            out[i * m:(i + 1) * m] = row
        return RMatrix(self.field, n, m, tuple(out))

    def scale(self, c: LocalElem) -> "RMatrix":
        return RMatrix(self.field, self.rows, self.cols,
                       tuple([c * e if e.num else e for e in self.entries]))

    def transpose(self) -> "RMatrix":
        return RMatrix.build(self.field, self.cols, self.rows,
                             lambda i, j: self.at(j, i))

    # -- flattening ---------------------------------------------------------

    @staticmethod
    def unvec(field: FieldSpec, col: "RMatrix", rows: int, cols: int) -> "RMatrix":
        if col.cols != 1 or col.rows != rows * cols:
            raise DimensionMismatchError("unvec shape mismatch")
        return RMatrix.build(field, rows, cols,
                             lambda i, j: col.at(j * rows + i, 0))


def _product_rows(a: RMatrix, b: RMatrix):
    """(i, row i of a @ b) for each row i that receives a term, one row
    at a time (module docstring).  The nonzero (j, entry) of row t of b
    are listed when a first needs them and dropped with the call."""
    field = a.field
    z = zero(field)
    k, m = a.cols, b.cols
    A, B = a.entries, b.entries
    nz_rows = {}  # t -> the nonzero (j, entry) of row t of b
    for i in range(a.rows):
        acc = None  # acc[j]: the (e, f) terms of cell (i, j), or None
        for t, e in enumerate(A[i * k:(i + 1) * k]):
            if not e.num:
                continue
            nz = nz_rows.get(t)
            if nz is None:
                nz = nz_rows[t] = [(j, f) for j, f in
                                   enumerate(B[t * m:(t + 1) * m]) if f.num]
            if nz and acc is None:
                acc = [None] * m
            for j, f in nz:
                terms = acc[j]
                if terms is None:
                    acc[j] = [(e, f)]
                else:
                    terms.append((e, f))
        if acc is not None:
            row = [z] * m
            for j, terms in enumerate(acc):
                if terms is not None:
                    if len(terms) == 1:
                        e, f = terms[0]
                        row[j] = e * f
                    else:
                        row[j] = _cell(field, z, terms)
            yield i, row


def _cell(field: FieldSpec, z: LocalElem, terms: list) -> LocalElem:
    """The sum of e * f over two or more ``terms`` (e, f): the products
    of polynomials summed by :func:`poly.sum_of_products`, the others in
    ``LocalElem`` arithmetic, and the two sums added once."""
    polys, rest = [], None
    for e, f in terms:
        if len(e.den) == 1 and len(f.den) == 1:
            polys.append((e.num, f.num))
        else:
            rest = e * f if rest is None else rest + e * f
    s = z
    if polys:
        num = poly.sum_of_products(field, polys)
        if num:
            s = LocalElem(field, num, z.den)
    if rest is None:
        return s
    return rest + s if s.num else rest


def product_first_nonzero(a: RMatrix, b: RMatrix) -> tuple | None:
    """(i, j) of the first nonzero entry of a @ b in row-major order, or
    None when a @ b = 0, without forming a @ b: the rows of the product
    come from :func:`_product_rows` one at a time, and the search stops
    at the first nonzero row.  A lopsided product (an n x 1 by 1 x n
    one) takes memory linear in its operands."""
    a._check_product(b)
    for i, row in _product_rows(a, b):
        for j, c in enumerate(row):
            if c.num:
                return (i, j)
    return None


def _is_identity(entries: tuple, n: int, o: LocalElem) -> bool:
    """Whether the n x n ``entries`` are one (``o`` or an equal copy) on
    the diagonal and zero elsewhere."""
    return (all(e is o or e == o for e in entries[::n + 1])
            and sum(map(bool, map(_num, entries))) == n)


def block(field: FieldSpec, grid: Sequence[Sequence[RMatrix]]) -> RMatrix:
    """Assemble a block matrix; each grid row must have equal heights and
    each grid column equal widths."""
    if not grid:
        return RMatrix.zeros(field, 0, 0)
    heights = [row[0].rows for row in grid]
    widths = [m.cols for m in grid[0]]
    for bi, row in enumerate(grid):
        if len(row) != len(widths):
            raise DimensionMismatchError("ragged block grid")
        for bj, m in enumerate(row):
            if m.rows != heights[bi] or m.cols != widths[bj]:
                raise DimensionMismatchError("inconsistent block sizes")
            if m.field != field:
                raise FieldMismatchError("block over a different field")
    out = []
    for bi, row in enumerate(grid):
        for i in range(heights[bi]):
            for bj, m in enumerate(row):
                out.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return RMatrix(field, sum(heights), sum(widths), tuple(out))


def block_diag(field: FieldSpec, blocks: Iterable[RMatrix]) -> RMatrix:
    blocks = list(blocks)
    n = len(blocks)
    grid = [
        [blocks[i] if i == j else RMatrix.zeros(field, blocks[i].rows, blocks[j].cols)
         for j in range(n)]
        for i in range(n)
    ]
    return block(field, grid)


def vstack(field: FieldSpec, mats: Sequence[RMatrix]) -> RMatrix:
    return block(field, [[m] for m in mats])


def commutation_matrix(field: FieldSpec, m: int, n: int) -> RMatrix:
    """Permutation sending flat index i*n + j (i outer) to j*m + i (j outer)."""
    o = one(field)
    return RMatrix.from_cells(field, m * n, m * n, (
        ((j * m + i, i * n + j), o) for i in range(m) for j in range(n)))
