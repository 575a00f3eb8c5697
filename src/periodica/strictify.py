"""Turn quasi-periodic data into a genuinely 2-periodic minimal complex.

The input is a pair of consecutive minimal differentials alpha0: F0->F1,
alpha1: F1->F2 together with period-2 isomorphisms phi0: F0->F2 and
phi1: F1->F3 intertwining them.  The strictified complex keeps F2 in the
even slot and F1 in the odd one with d1 = alpha1 and d0 = alpha0 phi0^-1.

The ambient doubly infinite complex is generated from the data by
conjugation, alpha^(i+2) = phi_(i+1) alpha^i phi_i^-1 with phi periodic
of period 2, and the comparison chain map f_n between the strictified
complex and the ambient one is computed by the explicit recursion
(f0 = phi0^-1, f1 = f2 = 1, products of phi's upward, products of
inverses downward).  The chain-map identity is verified exactly on a
finite window; this is a desk-scale verification, not a proof about the
infinite complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .complexes import TwoPeriodicComplex, validate_complex
from .errors import (
    DimensionMismatchError,
    NotAComplexError,
    NotInvertibleError,
    NotMinimalError,
    PeriodicaError,
)
from .fields import FieldSpec
from .matrix import RMatrix
from .minimal import is_minimal
from .smith import invert, is_invertible


@dataclass(frozen=True)
class QuasiPeriodicData:
    """alpha0: r1 x r0, alpha1: r0 x r1, phi0: r0 x r0, phi1: r1 x r1."""

    field: FieldSpec
    r0: int
    r1: int
    alpha0: RMatrix
    alpha1: RMatrix
    phi0: RMatrix
    phi1: RMatrix

    def __post_init__(self) -> None:
        if (self.alpha0.rows, self.alpha0.cols) != (self.r1, self.r0):
            raise DimensionMismatchError("alpha0 must be r1 x r0")
        if (self.alpha1.rows, self.alpha1.cols) != (self.r0, self.r1):
            raise DimensionMismatchError("alpha1 must be r0 x r1")
        if (self.phi0.rows, self.phi0.cols) != (self.r0, self.r0):
            raise DimensionMismatchError("phi0 must be r0 x r0")
        if (self.phi1.rows, self.phi1.cols) != (self.r1, self.r1):
            raise DimensionMismatchError("phi1 must be r1 x r1")


def _validated_inverses(q: QuasiPeriodicData):
    try:
        inv0 = invert(q.phi0)
        inv1 = invert(q.phi1)
    except NotInvertibleError:
        raise NotInvertibleError(
            "phi components must be invertible over R") from None
    if not (q.alpha1 @ q.alpha0).is_zero():
        raise NotAComplexError("alpha1 alpha0 != 0")
    if not (q.alpha0 @ inv0 @ q.alpha1).is_zero():
        raise NotAComplexError("alpha0 phi0^-1 alpha1 != 0")
    if not (q.alpha0.all_entries_in_maximal_ideal()
            and q.alpha1.all_entries_in_maximal_ideal()):
        raise NotMinimalError("alpha entries must lie in the maximal ideal")
    return inv0, inv1


def strictify(q: QuasiPeriodicData) -> TwoPeriodicComplex:
    """The 2-periodic complex with d1 = alpha1 and d0 = alpha0 phi0^-1."""
    inv0, _ = _validated_inverses(q)
    return _strictified(q, inv0)


def _strictified(q: QuasiPeriodicData, inv0: RMatrix) -> TwoPeriodicComplex:
    d0 = q.alpha0 @ inv0
    x = TwoPeriodicComplex(q.field, q.r0, q.r1, d0, q.alpha1)
    if validate_complex(x) is not None:
        raise NotAComplexError("strictified differentials do not square to zero")
    if not is_minimal(x):
        raise NotMinimalError("strictified complex is not minimal")
    return x


def _ambient(q: QuasiPeriodicData, n: int, inv0: RMatrix,
             inv1: RMatrix) -> RMatrix:
    def phi(i: int) -> RMatrix:
        return q.phi0 if i % 2 == 0 else q.phi1

    def phi_inv(i: int) -> RMatrix:
        return inv0 if i % 2 == 0 else inv1

    a = q.alpha0 if n % 2 == 0 else q.alpha1
    i = n % 2
    while i < n:
        a = phi(i + 1) @ a @ phi_inv(i)
        i += 2
    while i > n:
        a = phi_inv(i - 1) @ a @ phi(i - 2)
        i -= 2
    return a


def ambient_differential(q: QuasiPeriodicData, n: int) -> RMatrix:
    """alpha^n of the ambient complex generated by period-2 conjugation."""
    inv0, inv1 = _validated_inverses(q)
    return _ambient(q, n, inv0, inv1)


def window_chain_map(q: QuasiPeriodicData, radius: int = 10) -> Dict[int, RMatrix]:
    """Comparison maps f_n, |n| <= radius, with the chain-map identity
    alpha^(n-1) f_(n-1) = f_n d^(n-1) verified exactly at every window
    position (one extra f below the window supports the boundary check).
    Every f_n is invertible over R."""
    if radius < 1:
        raise ValueError("window radius must be >= 1")
    inv0, inv1 = _validated_inverses(q)
    x = _strictified(q, inv0)
    field = q.field

    def phi(i: int) -> RMatrix:
        return q.phi0 if i % 2 == 0 else q.phi1

    def phi_inv(i: int) -> RMatrix:
        return inv0 if i % 2 == 0 else inv1

    f: Dict[int, RMatrix] = {
        0: inv0,
        1: RMatrix.identity(field, q.r1),
        2: RMatrix.identity(field, q.r0),
    }
    for n in range(3, radius + 1):
        f[n] = phi(n - 2) @ f[n - 2]
    for n in range(-1, -radius - 2, -1):
        f[n] = phi_inv(n) @ f[n + 2]

    def strict_diff(n: int) -> RMatrix:
        return x.d0 if n % 2 == 0 else x.d1

    for n in range(-radius, radius + 1):
        lhs = _ambient(q, n - 1, inv0, inv1) @ f[n - 1]
        rhs = f[n] @ strict_diff(n - 1)
        if not (lhs - rhs).is_zero():
            raise PeriodicaError(f"window chain-map identity fails at n = {n}")
    for n in range(-radius, radius + 1):
        if not is_invertible(f[n]):
            raise PeriodicaError(f"comparison map f_{n} is not invertible")
    return {n: f[n] for n in range(-radius, radius + 1)}
