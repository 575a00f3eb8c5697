"""Minimal models: peel contractible rank-(1,1) summands until every
differential entry lies in the maximal ideal.

A complex is minimal when every entry of d0 and d1 has valuation >= 1.
The splitting peels one unit pivot at a time: basis changes turn the
pivot into a 1x1 identity block whose complementary row and column of
the *other* differential vanish automatically (both composites are
zero), so a trivial summand splits off exactly.  All basis changes are
elementary steps of one ``smith.TrackedBasis`` per degree (F0 carries
d1 as codomain and d0 as domain, F1 the reverse), whose p and q are
the certificates: the result carries mutually inverse isomorphisms, not
just an assertion.

One product per degree proves a certificate pair: ``back`` is verified
on construction, and q p = I in each degree makes ``into`` its inverse
(p, q square over a commutative ring, so p q = I follows), which is then
a chain map too and is built without a check.  A minimal input is its
own minimal model: ``reduce`` returns it with the identity maps, which
need no check, and builds no basis.  The input is a
complex by construction; the minimal model and the trivial complexes are
blocks of its conjugate by the certificates, so they are built without
the constructor's check (``complexes`` docstring).

Pivot policy: a unit of d1 first, then of d0; among them the one whose
unit part has the fewest coefficients (``smith.pivot_cost``), ties to
the smallest (row, col), so reductions are deterministic.  The peel
scales the pivot row by the pivot's inverse, and a constant unit puts no
denominator into it.  Any unit of d1 (d0) splits off a summand of the
same type, and the minimal model is unique up to isomorphism, so the
counts of each type and the minimal model's invariants do not depend on
the choice; only the certificates do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .complexes import (
    ChainMap2,
    Homotopy2,
    TwoPeriodicComplex,
    direct_sum,
    _unchecked,
    identity_map,
)
from .errors import NotTrivialError, PeriodicaError
from .fields import FieldSpec
from .localring import format_element, inverse, one
from .matrix import RMatrix
from .smith import TrackedBasis, pivot_cost


class TrivialType(enum.Enum):
    """Type1: odd differential is the identity; Type2: the even one is."""

    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True)
class SplitResult:
    """minimal + trivials together with exact mutually inverse isomorphisms
    into: (minimal + trivials) -> X and back: X -> (minimal + trivials);
    type1 and type2 count the trivial summands of each type."""

    minimal: TwoPeriodicComplex
    type1: int
    type2: int
    into: ChainMap2
    back: ChainMap2


def is_minimal(x: TwoPeriodicComplex) -> bool:
    """True iff every differential entry lies in (x)."""
    return (x.d0.all_entries_in_maximal_ideal()
            and x.d1.all_entries_in_maximal_ideal())


def trivial_complex(kind: TrivialType, n: int,
                    field: FieldSpec) -> TwoPeriodicComplex:
    """Block sum of n rank-(1,1) contractible complexes of one type."""
    if n < 0:
        raise ValueError("negative number of summands")
    ident = RMatrix.identity(field, n)
    zmat = RMatrix.zeros(field, n, n)
    if kind is TrivialType.TYPE1:
        return _unchecked(TwoPeriodicComplex, field, n, n, zmat, ident)
    return _unchecked(TwoPeriodicComplex, field, n, n, ident, zmat)


def _find_unit(grid, nrows, ncols):
    """(row, column) of the unit of least :func:`smith.pivot_cost` in the
    active block, the first in row-major order among equals; None when
    there is no unit.  The scan stops at a constant unit (cost 2)."""
    best, hit = None, None
    for i in range(nrows):
        row = grid[i]
        for j in range(ncols):
            e = row[j]
            if e and e.valuation == 0:
                c = pivot_cost(e, 0)
                if best is None or c < best:
                    best, hit = c, (i, j)
                    if c == 2:
                        return hit
    return hit


def _peel(d, other, rows: TrackedBasis, cols: TrackedBasis,
          nrows: int, ncols: int) -> bool:
    """Turn the simplest unit of d in its active nrows x ncols block
    (:func:`_find_unit`) into a 1x1 identity block at the last active
    position; False when none."""
    hit = _find_unit(d, nrows, ncols)
    if hit is None:
        return False
    i, j = hit
    if d[i][j] != one(rows.field):
        rows.scale(i, inverse(d[i][j]))
    rows.add_batch([(l, i, -d[l][j]) for l in range(rows.n)
                    if l != i and d[l][j]])
    cols.add_batch([(j, m, d[i][m]) for m in range(cols.n)
                    if m != j and d[i][m]])
    _assert_cleared(other, col=i, row=j)
    rows.swap(i, nrows - 1)
    cols.swap(j, ncols - 1)
    return True


def _reorder(basis: TrackedBasis, perm) -> None:
    """Swap basis vectors until position k holds the one now at perm[k]."""
    at = list(range(basis.n))  # at[k]: index before the reorder now at k
    for k, want in enumerate(perm):
        cur = at.index(want)
        basis.swap(k, cur)
        at[k], at[cur] = at[cur], at[k]


def reduce(x: TwoPeriodicComplex) -> SplitResult:
    """Split X as minimal + Type1^a + Type2^b with exact certificates."""
    if is_minimal(x):
        ident = identity_map(x)
        return SplitResult(x, 0, 0, ident, ident)
    field = x.field
    r0, r1 = x.r0, x.r1
    d0 = x.d0.to_grid()
    d1 = x.d1.to_grid()
    # F0 is the codomain of d1 and the domain of d0; F1 the other way round
    b0 = TrackedBasis(field, r0, rows=[d1], cols=[d0])
    b1 = TrackedBasis(field, r1, rows=[d0], cols=[d1])

    act0, act1 = r0, r1
    peels = []  # (TrivialType, f0_index, f1_index) in peel order
    while act0 > 0 and act1 > 0:
        if _peel(d1, d0, b0, b1, act0, act1):
            kind = TrivialType.TYPE1
        elif _peel(d0, d1, b1, b0, act1, act0):
            kind = TrivialType.TYPE2
        else:
            break
        act0 -= 1
        act1 -= 1
        peels.append((kind, act0, act1))

    # reorder trailing peeled pairs: Type1 blocks first, then Type2
    t1 = [(a, b) for kind, a, b in peels if kind is TrivialType.TYPE1]
    t2 = [(a, b) for kind, a, b in peels if kind is TrivialType.TYPE2]
    perm0 = list(range(act0)) + [a for a, _ in t1] + [a for a, _ in t2]
    perm1 = list(range(act1)) + [b for _, b in t1] + [b for _, b in t2]
    _reorder(b0, perm0)
    _reorder(b1, perm1)
    d0_m = RMatrix.from_grid(field, r1, r0, d0)
    d1_m = RMatrix.from_grid(field, r0, r1, d1)
    p0_m, q0_m = b0.matrices()
    p1_m, q1_m = b1.matrices()

    minimal = _unchecked(
        TwoPeriodicComplex, field, act0, act1,
        d0_m.submatrix(0, act1, 0, act0), d1_m.submatrix(0, act0, 0, act1))
    if not is_minimal(minimal):
        raise PeriodicaError("reduction left a unit entry (internal error)")
    parts = [minimal]
    if t1:
        parts.append(trivial_complex(TrivialType.TYPE1, len(t1), field))
    if t2:
        parts.append(trivial_complex(TrivialType.TYPE2, len(t2), field))
    blocksum = direct_sum(*parts) if len(parts) > 1 else minimal
    if blocksum.d0 != d0_m or blocksum.d1 != d1_m:
        raise PeriodicaError("reduced complex is not the expected block sum")

    # back is checked; q p = I makes into its inverse, a chain map too
    back = ChainMap2(x, blocksum, p0_m, p1_m)
    if (q0_m @ p0_m != RMatrix.identity(field, r0)
            or q1_m @ p1_m != RMatrix.identity(field, r1)):
        raise PeriodicaError("split certificates do not compose to identity")
    into = _unchecked(ChainMap2, blocksum, x, q0_m, q1_m)
    return SplitResult(minimal, len(t1), len(t2), into, back)


def _assert_cleared(other, col, row):
    for l, r in enumerate(other):
        if r[col]:
            raise PeriodicaError("complementary column failed to vanish at "
                                 f"({l}, {col}): {format_element(r[col])}")
    for m, e in enumerate(other[row]):
        if e:
            raise PeriodicaError("complementary row failed to vanish at "
                                 f"({row}, {m}): {format_element(e)}")


def trivial_contraction(w: TwoPeriodicComplex) -> Homotopy2:
    """Homotopy witnessing id_W ~ 0 for a sum of trivial complexes.

    The witness for a standard block is transported through the exact
    splitting isomorphisms, so any complex whose reduction has no minimal
    part is accepted; everything else raises NotTrivialError.  The standard
    contraction s = 1 gets no check of its own: d h + h d = into (d s + s d)
    back, which the final re-verification tests.
    """
    split = reduce(w)
    if split.minimal.total_rank != 0:
        raise NotTrivialError("complex has a nonzero minimal part")
    s0 = split.into.f1 @ split.back.f0
    s1 = split.into.f0 @ split.back.f1
    h = Homotopy2(w, w, s0, s1)
    if not h.witnesses(identity_map(w)):
        raise PeriodicaError("transported contraction failed re-verification")
    return h
