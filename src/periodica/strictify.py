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

from .complexes import TwoPeriodicComplex
from .errors import (
    DimensionMismatchError,
    NotAComplexError,
    NotInvertibleError,
    NotMinimalError,
    PeriodicaError,
)
from .fields import FieldSpec
from .matrix import RMatrix
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


def _validated_periods(q: QuasiPeriodicData):
    """phi = (phi0, phi1) and phi^-1, indexed by parity, after checking
    all the strictified complex needs: d0 d1 = alpha0 phi0^-1 alpha1,
    d1 d0 = (alpha1 alpha0) phi0^-1, and d0 = alpha0 phi0^-1 lies in the
    maximal ideal when alpha0 does."""
    try:
        inv = (invert(q.phi0), invert(q.phi1))
    except NotInvertibleError:
        raise NotInvertibleError(
            "phi components must be invertible over R") from None
    if not (q.alpha1 @ q.alpha0).is_zero():
        raise NotAComplexError("alpha1 alpha0 != 0")
    if not (q.alpha0 @ inv[0] @ q.alpha1).is_zero():
        raise NotAComplexError("alpha0 phi0^-1 alpha1 != 0")
    if not (q.alpha0.all_entries_in_maximal_ideal()
            and q.alpha1.all_entries_in_maximal_ideal()):
        raise NotMinimalError("alpha entries must lie in the maximal ideal")
    return (q.phi0, q.phi1), inv


def strictify(q: QuasiPeriodicData) -> TwoPeriodicComplex:
    """The 2-periodic complex with d1 = alpha1 and d0 = alpha0 phi0^-1."""
    _, inv = _validated_periods(q)
    return TwoPeriodicComplex(q.field, q.r0, q.r1, q.alpha0 @ inv[0], q.alpha1)


def ambient_differential(q: QuasiPeriodicData, n: int) -> RMatrix:
    """alpha^n of the ambient complex generated by period-2 conjugation,
    computed from alpha0 or alpha1 on its own."""
    phi, inv = _validated_periods(q)
    a = q.alpha0 if n % 2 == 0 else q.alpha1
    i = n % 2
    while i < n:
        a = phi[(i + 1) % 2] @ a @ inv[i % 2]
        i += 2
    while i > n:
        a = inv[(i - 1) % 2] @ a @ phi[i % 2]
        i -= 2
    return a


def window_chain_map(q: QuasiPeriodicData, radius: int = 10) -> Dict[int, RMatrix]:
    """Comparison maps f_n, |n| <= radius, with the chain-map identity
    alpha^(n-1) f_(n-1) = f_n d^(n-1) verified exactly at every window
    position (one extra f below the window supports the boundary check).
    Every f_n is invertible over R.

    One recursion each way builds f and the ambient differentials:
    upward f_n = phi(n-2) f_(n-2) and alpha^m = phi(m-1) alpha^(m-2)
    phi(m-2)^-1, downward f_n = phi(n)^-1 f_(n+2) and
    alpha^m = phi(m+1)^-1 alpha^(m+2) phi(m)."""
    if radius < 1:
        raise ValueError("window radius must be >= 1")
    phi, inv = _validated_periods(q)
    strict = (q.alpha0 @ inv[0], q.alpha1)
    f = {0: inv[0], 1: RMatrix.identity(q.field, q.r1),
         2: RMatrix.identity(q.field, q.r0)}
    alpha = {0: q.alpha0, 1: q.alpha1}
    for n in range(3, radius + 1):
        f[n] = phi[n % 2] @ f[n - 2]
    for m in range(2, radius):
        alpha[m] = phi[(m - 1) % 2] @ alpha[m - 2] @ inv[m % 2]
    for n in range(-1, -radius - 2, -1):
        f[n] = inv[n % 2] @ f[n + 2]
        alpha[n] = inv[(n + 1) % 2] @ alpha[n + 2] @ phi[n % 2]

    for n in range(-radius, radius + 1):
        if alpha[n - 1] @ f[n - 1] != f[n] @ strict[(n - 1) % 2]:
            raise PeriodicaError(f"window chain-map identity fails at n = {n}")
    for n in range(-radius, radius + 1):
        if not is_invertible(f[n]):
            raise PeriodicaError(f"comparison map f_{n} is not invertible")
    return {n: f[n] for n in range(-radius, radius + 1)}
