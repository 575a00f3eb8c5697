"""Minimal models: split off the contractible rank-(1,1) summands until
every differential entry lies in the maximal ideal.

A complex is minimal when every entry of d0 and d1 has valuation >= 1.
One elimination splits X completely (:func:`_split`): a Smith sweep of
d1 (``smith.smith_sweep``), then one of d0 from the rank of the first.
Each pivot becomes a diagonal block whose row and column of the *other*
differential vanish because both composites do.  The second sweep only
conjugates the rows and columns that the first left zero, so d1 keeps
its form.  The sweep takes the least valuation first, so the unit pivots
of each sweep come first: those of d1 are the Type1 summands, those of
d0 the Type2 ones.  The positive pivots x^j of d1 are the labels K(j),
those of d0, their basis vector of degree 0 scaled by -1, the labels
K(j)[1], and the vectors neither sweep pivots on carry zero
differentials, the free summands R and R[1].  The minimal model is the
block sum of these labels (``models.block_sum``), and the trivial
blocks, Type1 then Type2, are moved behind it.  All basis changes are
elementary steps of one ``smith.TrackedBasis`` per degree (F0 carries d1
as codomain and d0 as domain, F1 the reverse), whose p and q are the
certificates: the result carries mutually inverse isomorphisms, not just
an assertion.

The split is proved once, by one product per degree: ``back`` is
verified on construction, and p q = I in each degree makes ``into`` its
inverse (p, q square over a commutative ring, so q p = I follows), which
is then a chain map too and is built without a check.  That proves all
of it.  ``back``'s squares give p1 d0 = d0_B p0, so d0_B = p1 d0 q0, and
likewise for d1: the block sum B, labels included, is X conjugated by
the certificates, and the rows and columns of the other differential at
each pivot vanish in it.  The minimal model sums the labels after each
sweep's unit pivots, x^j with j >= 1 and the free summands, so it is
minimal by construction.  A minimal input is its own minimal model:
``reduce`` returns it with the identity maps, which need no check, and
builds no basis; ``classify`` runs :func:`_split` on it for its labels.
The input is a complex by construction; the model sums and the trivial
complexes are blocks of its conjugate by the certificates, so they are
built without the constructor's check (``complexes`` docstring).  The
contraction of the trivial part, into (0 + s) back for the standard
contraction s = 1 of the trivial blocks, is built in one place: the
certificate that ``classify.decomposition_certificate`` moves along the
splitting.

Pivot policy: the Smith sweep's, the least valuation first and among
those the entry whose unit part has the fewest coefficients
(``smith.pivot_cost``), ties to the smallest (row, col), so reductions
are deterministic.  The counts of each type are the k-ranks of d1(0)
and of d0(0), the labels are the invariant factors of the minimal
model's differentials, and the minimal model is unique up to
isomorphism, so none of them depends on the choice; only the
certificates do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .complexes import (
    ChainMap2,
    TwoPeriodicComplex,
    _model_sum,
    _unchecked,
    direct_sum,
    identity_map,
)
from .errors import PeriodicaError
from .fields import FieldSpec
from .localring import one
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
    type1 and type2 count the trivial summands of each type.  labels are
    the (j, shifted) pairs of which minimal is the block sum
    (``models.block_sum``), or None when X was minimal and is
    returned as it is."""

    minimal: TwoPeriodicComplex
    type1: int
    type2: int
    into: ChainMap2
    back: ChainMap2
    labels: Optional[tuple]


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


def _reorder(basis: TrackedBasis, perm) -> None:
    """Swap basis vectors until position k holds the one now at perm[k]."""
    at = list(range(basis.n))  # at[k]: index before the reorder now at k
    for k, want in enumerate(perm):
        cur = at.index(want)
        basis.swap(k, cur)
        at[k], at[cur] = at[cur], at[k]


def _split(x: TwoPeriodicComplex) -> SplitResult:
    """X split as the labelled minimal model + Type1^a + Type2^b by a
    Smith sweep of d1 and then one of d0 from the rank of the first, on
    grids of X's differentials attached to one ``TrackedBasis`` per
    degree (module docstring); the one proof of the split is ``back``'s
    check and p q = I."""
    field, r0, r1 = x.field, x.r0, x.r1
    d0, d1 = x.d0.to_grid(), x.d1.to_grid()
    # F0 is the codomain of d1 and the domain of d0; F1 the other way round
    b0 = TrackedBasis(field, r0, rows=[d1], cols=[d0])
    b1 = TrackedBasis(field, r1, rows=[d0], cols=[d1])
    odd = smith_sweep(d1, b0, b1)
    r = len(odd)
    even = smith_sweep(d0, b1, b0, r)
    k = r + len(even)
    # the least valuation comes first: the unit pivots, Type1 at [0, t1)
    # and Type2 at [r, r + t2), lead their sweeps
    t1, t2 = odd.count(0), even.count(0)
    # flip signs so the shifted blocks match shift(K(j)) exactly
    for i in range(r + t2, k):
        b0.scale(i, -one(field))
    labels = tuple([(e, False) for e in odd[t1:]]
                   + [(e, True) for e in even[t2:]]
                   + [(0, False)] * (r0 - k) + [(0, True)] * (r1 - k))
    minimal = _model_sum(field, labels)
    blocksum = minimal
    if t1 or t2:
        # move the trivial blocks behind the minimal one
        trivial = [*range(t1), *range(r, r + t2)]
        for b in (b0, b1):
            _reorder(b, [i for i in range(b.n) if i not in trivial] + trivial)
        blocksum = direct_sum(
            minimal, trivial_complex(TrivialType.TYPE1, t1, field),
            trivial_complex(TrivialType.TYPE2, t2, field))

    # back is checked; p q = I makes into its inverse, a chain map too
    (p0, q0), (p1, q1) = b0.matrices(), b1.matrices()
    back = ChainMap2(x, blocksum, p0, p1)
    if (p0 @ q0 != RMatrix.identity(field, r0)
            or p1 @ q1 != RMatrix.identity(field, r1)):
        raise PeriodicaError("split certificates do not compose to identity")
    into = _unchecked(ChainMap2, blocksum, x, q0, q1)
    return SplitResult(minimal, t1, t2, into, back, labels)


def reduce(x: TwoPeriodicComplex) -> SplitResult:
    """Split X as minimal + Type1^a + Type2^b with exact certificates."""
    if is_minimal(x):
        ident = identity_map(x)
        return SplitResult(x, 0, 0, ident, ident, None)
    return _split(x)
