"""Smith normal form and linear algebra over the local ring, and the
elimination engine that Smith forms, minimal models and decompositions
share.

The engine is :class:`TrackedBasis`: a basis change G of a free module
R^n, applied one step at a time: swap two basis vectors, scale one by
a unit, or add multiples of some to others in one batch.  Grids attached
as ``rows`` have the module as codomain and become G m; grids attached
as ``cols`` have it as domain and become m G^-1.  Its pivot policies
are the Smith sweep (:func:`smith_sweep`), which gives Smith forms and,
run on d1 and then on d0 of a complex (``minimal._split``), splits off
its trivial summands and labels the rest K(j), K(j)[1], R and R[1]
(``minimal.reduce``, ``classify.decompose``); and random conjugations
(``rand.random_invertible``).  Each certificate is the p = G and
q = G^-1 of its bases.

The basis logs its steps and applies them only to the attached grids.
Each kind of step has one kernel (:func:`_swap`, :func:`_scale`,
:func:`_add_batch`), which applies it live and replays it from the log.
There is one replay of a log, :func:`_apply`, and it runs on the operand
a transform multiplies: G m runs the steps forward on the rows of m,
G^-1 m runs their inverses backward.  p and q
(:meth:`TrackedBasis.matrices`) and a Smith form's u, u^-1, v and v^-1
are that replay on an identity; the Smith transforms are built only
when read, then kept.  Solving a system or presenting a subquotient
applies the logs to its 1-column or k-column operand and builds no
n x n transform.

Smith pivot policy (:func:`smith_sweep`): over k[x]_(x) every nonzero
element is unit * x^v, so one sweep with a minimal-valuation pivot
produces U A V = D, D = diag(x^a1, ..., x^ar, 0, ...) with
a1 <= ... <= ar.  Among the entries of minimal valuation in the
remaining submatrix the pivot is the one whose unit part has the fewest
coefficients (:func:`pivot_cost`), ties broken by smallest row then
column index, so the output is deterministic.  The pivot is scaled to
x^v, then its column and its row are cleared.  The exponents are the
invariant factors of A, whichever admissible entry is taken; the choice
only decides what the transforms look like.  The simplest unit is
chosen because the pivot row is scaled by its inverse: a constant unit
puts no denominator into it, so while a monomial pivot exists at each
step the elimination stays in k[x], where sums and products take no gcd
(Kannan and Bachem, SIAM J. Comput. 8, 1979, and Storjohann's thesis,
ETH 2000, control intermediate growth the same way, through the choice
of pivot).  Since the least valuation comes first, the unit pivots
lead the sweep.

The search reads row caches, not the submatrix: each remaining row
keeps the (valuation, cost, column) of its first entry of least
(valuation, cost), or None when it is zero, and the pivot is the least
(valuation, cost, row) among them, the same entry a row-major scan for
the least (valuation, cost) finds.  Both scans stop at a constant unit,
key (0, 2), which nothing beats, so a matrix with one pays no full scan.
A pivot step changes only the rows with a nonzero in the pivot column
or in the column swapped with it, so only those are rescanned; a large
sparse matrix (a Hom complex) is not rescanned whole at every pivot.
The clearing of a column (row) is one :meth:`TrackedBasis.add_batch`:
it reads the shared pivot row (column) once per grid and is logged as
one entry, which :func:`_apply` replays with the same kernel, forward
as it was applied and backward with every multiplier negated.

With the transforms and their exact inverses at hand, solving linear
systems, inverting matrices and presenting subquotients (kernel mod
image) is certificate-grade: every identity can be re-verified by exact
matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    CompositeNotZeroError,
    DimensionMismatchError,
    NotInvertibleError,
)
from .fields import FieldSpec
from .localring import inverse, one, unit_part, x_shift, zero
from .matrix import RMatrix, product_first_nonzero, vstack


def _swap(rows, cols, i: int, j: int) -> None:
    for g in rows:
        g[i], g[j] = g[j], g[i]
    for g in cols:
        for row in g:
            row[i], row[j] = row[j], row[i]


def _scale(rows, cols, i: int, unit, inv) -> None:
    for g in rows:
        row = g[i]
        for t, e in enumerate(row):
            if e.num:
                row[t] = unit * e
    for g in cols:
        for row in g:
            if row[i].num:
                row[i] = inv * row[i]


def _add_batch(rows, cols, steps) -> None:
    """G <- (I + N) G for N the sum of lam e_ab over the add steps
    (a, b, lam): row a += lam row b, column b -= lam column a.  No a is
    the b of another step, so e_ab e_cd = 0 for any two of them and
    N^2 = 0: I + N is the product of the steps' I + lam e_ab in any
    order, and its inverse is I - N, the batch with every lam negated.
    No source row (column) is written, so consecutive steps that share
    one read its nonzeros once per grid: a clearing's shared pivot row
    (column) is read once, and distinct sources cost no lookup."""
    for g in rows:
        last = None
        for a, b, lam in steps:
            if b != last:
                last = b
                nz = [(c, e) for c, e in enumerate(g[b]) if e.num]
            ra = g[a]
            for c, e in nz:
                ra[c] = ra[c] + lam * e
    for g in cols:
        last = None
        for a, b, lam in steps:
            if a != last:
                last = a
                nz = [(row, row[a]) for row in g if row[a].num]
            nlam = -lam
            for row, e in nz:
                row[b] = row[b] + nlam * e


def _apply(field: FieldSpec, steps, m: RMatrix, inverse: bool) -> RMatrix:
    """G m (``inverse`` false) or G^-1 m for the basis change G of a step
    log.  G m runs the steps forward on the rows of m.  G^-1 m runs the
    inverted steps (a swap; a scale by ``inv`` instead of ``unit``; an
    add batch with every lam negated) in reverse order."""
    grid = m.to_grid()
    rows = [grid]
    if not inverse:
        for step, *args in steps:
            step(rows, (), *args)
    else:
        for step, *args in reversed(steps):
            if step is _scale:
                i, unit, inv = args
                _scale(rows, (), i, inv, unit)
            elif step is _add_batch:
                _add_batch(rows, (), [(a, b, -lam) for a, b, lam in args[0]])
            else:
                _swap(rows, (), *args)
    return RMatrix.from_grid(field, m.rows, m.cols, grid)


class TrackedBasis:
    """Basis change G of R^n, kept as the log of its elementary steps.
    Each step acts at once on the attached ``rows`` grids (m -> G m) and
    ``cols`` grids (m -> m G^-1), in place; p = G and q = G^-1 are
    built from the log by :meth:`matrices`."""

    def __init__(self, field: FieldSpec, n: int, rows=(), cols=()) -> None:
        self.field = field
        self.n = n
        self.steps = []
        self._rows = list(rows)
        self._cols = list(cols)

    def swap(self, i: int, j: int) -> None:
        if i != j:
            self.steps.append((_swap, i, j))
            _swap(self._rows, self._cols, i, j)

    def scale(self, i: int, unit) -> None:
        """G <- diag(1, .., unit, .., 1) G: row i times unit; column i
        times unit**-1."""
        inv = inverse(unit)
        self.steps.append((_scale, i, unit, inv))
        _scale(self._rows, self._cols, i, unit, inv)

    def add_batch(self, steps) -> None:
        """G <- (I + N) G for the add steps (a, b, lam) of ``steps``
        (:func:`_add_batch`), logged as one entry; no a may be the b of
        another step, as in the column (row) clearing of one pivot.  An
        empty batch logs nothing."""
        if steps:
            self.steps.append((_add_batch, steps))
            _add_batch(self._rows, self._cols, steps)

    def matrices(self) -> tuple:
        """(G, G^-1) as matrices."""
        eye = RMatrix.identity(self.field, self.n)
        return (_apply(self.field, self.steps, eye, False),
                _apply(self.field, self.steps, eye, True))


class SmithForm:
    """u @ a @ v == d exactly; u, v invertible with the stored inverses.

    ``d`` and ``exponents`` (the valuations a1 <= ... <= ar of the
    nonzero diagonal) come with the form.  ``u_times(m)`` and its three
    siblings give u m, u^-1 m, v m and v^-1 m by applying the sweep's
    step logs to m.  Each of ``u``, ``u_inv``, ``v`` and ``v_inv`` is
    that product with an identity, built when first read, then kept."""

    def __init__(self, d: RMatrix, exponents: tuple, left: list,
                 right: list) -> None:
        self.d = d
        self.exponents = exponents
        self._left = left    # steps of the row basis: u = G, u_inv = G^-1
        self._right = right  # steps of the column basis: v_inv = G, v = G^-1

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def _times(self, steps, n: int, m: RMatrix, inverse: bool) -> RMatrix:
        if m.rows != n:
            raise DimensionMismatchError(
                f"cannot apply a {n}x{n} transform to {m.rows} rows")
        return _apply(self.d.field, steps, m, inverse)

    def u_times(self, m: RMatrix) -> RMatrix:
        return self._times(self._left, self.d.rows, m, False)

    def u_inv_times(self, m: RMatrix) -> RMatrix:
        return self._times(self._left, self.d.rows, m, True)

    def v_times(self, m: RMatrix) -> RMatrix:
        return self._times(self._right, self.d.cols, m, True)

    def v_inv_times(self, m: RMatrix) -> RMatrix:
        return self._times(self._right, self.d.cols, m, False)

    @cached_property
    def u(self) -> RMatrix:
        return self.u_times(RMatrix.identity(self.d.field, self.d.rows))

    @cached_property
    def u_inv(self) -> RMatrix:
        return self.u_inv_times(RMatrix.identity(self.d.field, self.d.rows))

    @cached_property
    def v(self) -> RMatrix:
        return self.v_times(RMatrix.identity(self.d.field, self.d.cols))

    @cached_property
    def v_inv(self) -> RMatrix:
        return self.v_inv_times(RMatrix.identity(self.d.field, self.d.cols))


def pivot_cost(e, v: int) -> int:
    """Coefficients of the unit part of e = unit * x^v: those of its
    numerator from x^v up, and those of its denominator.  A constant
    unit costs 2, the least there is."""
    return len(e.num) - v + len(e.den)


def _first_min(row, start: int, ncols: int):
    """(valuation, cost, column) of the first entry of least (valuation,
    :func:`pivot_cost`) of a grid row from column ``start`` on; None
    when they are all zero.  The scan stops at a constant unit, key
    (0, 2), which no entry beats."""
    best = None
    for j in range(start, ncols):
        e = row[j]
        if e.num:
            v = e.valuation
            key = (v, pivot_cost(e, v))
            if best is None or key < best[:2]:
                best = (*key, j)
                if key == (0, 2):
                    break
    return best


def smith_sweep(work, rows: TrackedBasis, cols: TrackedBasis,
                start: int = 0) -> list:
    """Diagonalise the grid ``work`` from position (start, start) on,
    with ``work`` attached to ``rows`` (its codomain) and ``cols`` (its
    domain); returns the valuations of the diagonal pivots in order."""
    nrows, ncols = rows.n, cols.n
    unit_one = one(rows.field)
    exps = []
    # per row from t on: (valuation, cost, column) of its first least
    # entry from column t on, or None for a zero row
    cache = [None] * start + [_first_min(work[i], start, ncols)
                              for i in range(start, nrows)]
    for t in range(start, min(nrows, ncols)):
        # least (valuation, cost, row); its cached column is the row's
        # first least one, so ties go to the lowest (row, column)
        best = None
        for i in range(t, nrows):
            c = cache[i]
            if c is not None and (best is None or c[:2] < best[:2]):
                best, pi = c, i
                if c[:2] == (0, 2):
                    break
        if best is None:
            break
        pv, _, pj = best
        rows.swap(pi, t)
        cache[pi], cache[t] = cache[t], cache[pi]
        cols.swap(pj, t)
        pivot = work[t][t]
        unit = unit_part(pivot)
        if unit != unit_one:
            rows.scale(t, inverse(unit))
        # pivot is now exactly x^pv; eliminate its column, then its row.
        # Only rows with a nonzero in column t or pj change below row t.
        touched = [i for i in range(t + 1, nrows)
                   if work[i][t].num or work[i][pj].num]
        rows.add_batch([(i, t, -x_shift(work[i][t], -pv))
                        for i in touched if work[i][t].num])
        wt = work[t]
        cols.add_batch([(t, j, x_shift(wt[j], -pv))
                        for j in range(t + 1, ncols) if wt[j].num])
        for i in touched:
            cache[i] = _first_min(work[i], t + 1, ncols)
        exps.append(pv)
    return exps


def smith_normal_form(a: RMatrix) -> SmithForm:
    work = a.to_grid()
    left = TrackedBasis(a.field, a.rows, rows=[work])
    right = TrackedBasis(a.field, a.cols, cols=[work])
    exps = smith_sweep(work, left, right)
    return SmithForm(RMatrix.from_grid(a.field, a.rows, a.cols, work),
                     tuple(exps), left.steps, right.steps)


def invert(a: RMatrix) -> RMatrix:
    """Inverse over R; exists iff the Smith form is the identity."""
    if not a.is_square():
        raise NotInvertibleError("non-square matrix")
    s = smith_normal_form(a)
    if s.rank != a.rows or any(e != 0 for e in s.exponents):
        raise NotInvertibleError("matrix is not invertible over the local ring")
    return s.v_times(s.u)


def solve_over_ring(a: RMatrix, b: RMatrix) -> Optional[RMatrix]:
    """Solve a @ x = b exactly over R; None when no solution exists in R.

    Solvability is decided on the Smith form: with u a v = d and c = u b,
    each diagonal row needs x^ai | ci and each zero row needs ci = 0.
    """
    if b.cols != 1 or b.rows != a.rows:
        raise DimensionMismatchError("right-hand side must be a column of matching height")
    s = smith_normal_form(a)
    c = s.u_times(b)
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
    return s.v_times(ycol)


@dataclass(frozen=True)
class SubquotientModule:
    """Presentation of ker(a)/im(b): R/x^f1 + ... + R/x^fk + R^free_rank,
    the factors ascending.  ``complexes.cohomology`` reads both fields off
    Smith exponents; ``homology_invariants`` returns lifted generators
    beside it."""

    factors: tuple
    free_rank: int


def homology_invariants(a: RMatrix, b: RMatrix) -> tuple:
    """(module, generators): the invariant factors of ker(a)/im(b) and
    columns of the ambient free module lifting its cyclic generators,
    torsion factors first in the order of ``module.factors``, then the
    free generators.

    Requires a @ b = 0, checked without forming a @ b: with u a v = d,
    u a b = d (v^-1 b), and the first rank(a) entries of d's diagonal are
    nonzero, so a @ b = 0 exactly when the first rank(a) rows of v^-1 b
    vanish.  When that test fails, the first nonzero entry of a @ b is
    found without forming it (:func:`matrix.product_first_nonzero`) to
    name it.  The kernel of ``a`` is the free summand spanned by
    the trailing columns of v; the image of ``b`` is rewritten in those
    coordinates and reduced by a second Smith form.  Each generator is
    lifted as v [0 ; u2^-1 e] for its unit column e, both transforms
    applied to the k generator columns at once.
    """
    if a.cols != b.rows:
        raise DimensionMismatchError("ker/im dimensions incompatible")
    s = smith_normal_form(a)
    r = s.rank
    n = a.cols
    kdim = n - r
    bk = s.v_inv_times(b)
    if any(e.num for e in bk.entries[:r * b.cols]):
        i, j = product_first_nonzero(a, b)
        raise CompositeNotZeroError(f"composite is nonzero at ({i}, {j})")
    m = bk.submatrix(r, n, 0, b.cols)
    s2 = smith_normal_form(m)
    torsion = [e for e in s2.exponents if e > 0]
    nunits = len(s2.exponents) - len(torsion)
    free_rank = kdim - s2.rank
    gen_indices = list(range(nunits, len(s2.exponents))) + \
        list(range(s2.rank, kdim))
    k = len(gen_indices)
    e_gen = RMatrix.identity(a.field, kdim).take_cols(gen_indices)
    lifts = s.v_times(vstack(a.field, [RMatrix.zeros(a.field, r, k),
                                       s2.u_inv_times(e_gen)]))
    gens = tuple(RMatrix(a.field, n, 1, lifts.entries[i::k]) for i in range(k))
    return SubquotientModule(tuple(torsion), free_rank), gens
