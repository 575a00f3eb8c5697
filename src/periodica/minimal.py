"""Minimal models: split off the contractible rank-(1,1) summands until
every differential entry lies in the maximal ideal.

A complex is minimal when every entry of d0 and d1 has valuation >= 1.
A trivial summand is a Smith step whose pivot is a unit, so the split
is two unit-only Smith sweeps (``smith.smith_sweep`` with
``units_only``): one of d1, which splits off the Type1 summands, then
one of d0 from the rank of the first, which splits off the Type2 ones.
Each pivot becomes a 1x1 identity block whose row and column of the
*other* differential vanish because both composites do, so a trivial
summand splits off exactly; :func:`_assert_split` checks that after each
sweep.  Two sweeps are enough: after the first, d1's remaining block
holds no unit, and the second only conjugates that block by invertible
matrices, so its entries stay in (x).  The trivial blocks, Type1 then
Type2, are then rotated behind the remaining minimal block.  All basis
changes are elementary steps of one ``smith.TrackedBasis`` per degree
(F0 carries d1 as codomain and d0 as domain, F1 the reverse), whose p
and q are the certificates: the result carries mutually inverse
isomorphisms, not just an assertion.  ``classify`` runs the same two
sweeps (:func:`_two_sweeps`) on the minimal model, with no stop at the
units, for the K(j)/K(j)[1] classification.

One product per degree proves a certificate pair: ``back`` is verified
on construction, and q p = I in each degree makes ``into`` its inverse
(p, q square over a commutative ring, so p q = I follows), which is then
a chain map too and is built without a check.  A minimal input is its
own minimal model: ``reduce`` returns it with the identity maps, which
need no check, and builds no basis.  The input is a
complex by construction; the minimal model and the trivial complexes are
blocks of its conjugate by the certificates, so they are built without
the constructor's check (``complexes`` docstring).

Pivot policy: the Smith sweep's, among the units only: the one whose
unit part has the fewest coefficients (``smith.pivot_cost``), ties to
the smallest (row, col), so reductions are deterministic.  The sweep
scales the pivot row by the pivot's inverse, and a constant unit puts no
denominator into it.  The counts of each type are the k-ranks of d1(0)
and of d0(0), and the minimal model is unique up to isomorphism, so
they and the minimal model's invariants do not depend on the choice;
only the certificates do.
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
from .localring import format_element
from .matrix import RMatrix
from .smith import TrackedBasis, smith_sweep


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


def _assert_split(grid, lo: int, hi: int) -> None:
    """Rows and columns lo..hi-1 of ``grid`` vanish: the other
    differential's pivots there split off, both composites being zero."""
    for i, row in enumerate(grid):
        for j in range(len(row)) if lo <= i < hi else range(lo, hi):
            if row[j]:
                raise PeriodicaError(
                    "differential does not respect the split at "
                    f"({i}, {j}): {format_element(row[j])}")


def _two_sweeps(x: TwoPeriodicComplex, units_only: bool = False) -> tuple:
    """(d0, d1, b0, b1, odd, even): a Smith sweep of d1, then one of d0
    from the rank of the first, on grids of X's differentials attached to
    one ``TrackedBasis`` per degree; odd and even are the valuations of
    their pivots.  Each sweep's split is checked."""
    d0, d1 = x.d0.to_grid(), x.d1.to_grid()
    # F0 is the codomain of d1 and the domain of d0; F1 the other way round
    b0 = TrackedBasis(x.field, x.r0, rows=[d1], cols=[d0])
    b1 = TrackedBasis(x.field, x.r1, rows=[d0], cols=[d1])
    odd = smith_sweep(d1, b0, b1, units_only=units_only)
    _assert_split(d0, 0, len(odd))
    even = smith_sweep(d0, b1, b0, len(odd), units_only)
    _assert_split(d1, len(odd), len(odd) + len(even))
    return d0, d1, b0, b1, odd, even


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
    field, r0, r1 = x.field, x.r0, x.r1
    d0, d1, b0, b1, odd, even = _two_sweeps(x, units_only=True)
    t1, t2 = len(odd), len(even)
    # rotate the trivial blocks, Type1 at [0, t1) and Type2 at [t1, k),
    # behind the minimal block
    k = t1 + t2
    _reorder(b0, list(range(k, r0)) + list(range(k)))
    _reorder(b1, list(range(k, r1)) + list(range(k)))
    d0_m = RMatrix.from_grid(field, r1, r0, d0)
    d1_m = RMatrix.from_grid(field, r0, r1, d1)
    p0_m, q0_m = b0.matrices()
    p1_m, q1_m = b1.matrices()

    minimal = _unchecked(
        TwoPeriodicComplex, field, r0 - k, r1 - k,
        d0_m.submatrix(0, r1 - k, 0, r0 - k),
        d1_m.submatrix(0, r0 - k, 0, r1 - k))
    if not is_minimal(minimal):
        raise PeriodicaError("reduction left a unit entry (internal error)")
    parts = [minimal]
    if t1:
        parts.append(trivial_complex(TrivialType.TYPE1, t1, field))
    if t2:
        parts.append(trivial_complex(TrivialType.TYPE2, t2, field))
    blocksum = direct_sum(*parts) if len(parts) > 1 else minimal
    if blocksum.d0 != d0_m or blocksum.d1 != d1_m:
        raise PeriodicaError("reduced complex is not the expected block sum")

    # back is checked; q p = I makes into its inverse, a chain map too
    back = ChainMap2(x, blocksum, p0_m, p1_m)
    if (q0_m @ p0_m != RMatrix.identity(field, r0)
            or q1_m @ p1_m != RMatrix.identity(field, r1)):
        raise PeriodicaError("split certificates do not compose to identity")
    into = _unchecked(ChainMap2, blocksum, x, q0_m, q1_m)
    return SplitResult(minimal, t1, t2, into, back)


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
