"""Coefficient fields: the rationals and the prime fields F_p.

Field elements are plain Python values: over Q an ``int`` when the value is
integral and a ``Fraction`` with denominator > 1 otherwise, over F_p ints
reduced into ``[0, p)``.  A :class:`FieldSpec` carries the arithmetic so
polynomials and matrices stay lightweight and hashable.  Over Q every
method returns an integral result as an ``int``; ``int`` and ``Fraction``
compare and hash equal by value, so only the Python type differs.

``FieldSpec`` is the scalar API: each method branches on ``p`` and acts on
one or two elements.  Loops over polynomial coefficients live in
:mod:`periodica.poly`, which checks the field once per call and runs a
kernel for that field on the plain values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError

Scalar = Union[Fraction, int]

_QONE = Fraction(1)


def q_canon(c: Scalar) -> Scalar:
    """A rational as an ``int`` when it is integral, else the ``Fraction``."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the twelve prime bases up to 37 is exact below this
# bound (about 3.2e23), the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).  Larger characteristics are rejected.
MAX_CHARACTERISTIC = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field k: the rationals when ``p == 0``, else F_p."""

    p: int = 0

    def __post_init__(self) -> None:
        if self.p >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"field characteristic must be below {MAX_CHARACTERISTIC}")
        if self.p != 0 and not _is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def from_label(label: str) -> "FieldSpec":
        """Parse a field label, either ``"Q"`` or ``"Fp:<p>"``."""
        if label == "Q":
            return FieldSpec(0)
        if isinstance(label, str) and label.startswith("Fp:"):
            try:
                p = int(label[3:])
            except ValueError:
                raise ParseError(f"bad field label {label!r}") from None
            try:
                return FieldSpec(p)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"bad field label {label!r}; expected 'Q' or 'Fp:<p>'")

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    @property
    def label(self) -> str:
        return "Q" if self.p == 0 else f"Fp:{self.p}"

    # -- arithmetic on plain scalar values ---------------------------------

    @property
    def zero(self) -> Scalar:
        return 0

    @property
    def one(self) -> Scalar:
        return 1

    def of_int(self, n: int) -> Scalar:
        return n if self.p == 0 else n % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return q_canon(a + b) if self.p == 0 else (a + b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return q_canon(a * b) if self.p == 0 else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            # Fraction(1) / a, not 1 / a: two ints would divide to a float
            return q_canon(_QONE / a)
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    # -- text form ----------------------------------------------------------

    def parse_scalar(self, token: str) -> Scalar:
        """Parse one coefficient: ``p/q`` or an integer over Q, an integer over F_p."""
        token = token.strip()
        try:
            if self.p == 0:
                return q_canon(Fraction(token))
            return int(token) % self.p
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {token[:20]!r} over "
                             f"{self.label}") from None

    def format_scalar(self, a: Scalar) -> str:
        return str(a)
