"""Exact elements of the local ring R = k[x] localized at (x).

An element is a reduced fraction num/den of polynomials with den(0) != 0.
Canonical form: gcd(num, den) = 1 and den has constant term 1; zero is
0/1.  Coefficients are the field's plain values (see :mod:`fields`): over
Q an ``int`` when integral and a ``Fraction`` with denominator > 1
otherwise, so den(0) = 1 is the int 1.  The valuation of a nonzero
element is the order of vanishing of its numerator at x = 0; every
nonzero element factors as unit * x^valuation, and the units are exactly
the elements of valuation 0.

An element is an immutable ``(field, num, den)`` tuple (a
``typing.NamedTuple``): equality and hash go by value, and a field takes
part in both, so equal polynomials over different fields are different
elements.  Combining an element with anything but an element of the
same field raises TypeError (``3 * e`` repeats no tuple) or
FieldMismatchError.

Arithmetic relies on its operands being canonical and returns canonical
results without the full gcd of the result's numerator and denominator
(Henrici, "A subroutine for computations with rational numbers", J. ACM 3,
1956; Knuth, TAOCP vol. 2, 4.5.1).  For a/b * c/d only a/d and c/b can
cancel; a monomial numerator cannot cancel at all, since den(0) != 0.  For
a/b + c/d with g = gcd(b, d), the sum t = a*(d/g) + c*(b/g) is coprime to
b/g and d/g, so only gcd(t, g) is taken, and none when g = 1.  :func:`elem`
is the full canonicalisation, used for parsing and for those partial
cancellations: it validates the denominator and hands the fraction to
the lowest-terms kernel :func:`poly.lowest_terms`, which stays in
integers (Z[x] over Q, ints mod p over F_p) until it builds the result.

Every division is exact and checked: by a gcd through
:func:`poly.exact_quotient` or inside :func:`poly.lowest_terms`, and by
x^k (:func:`x_shift`, :func:`unit_part`) by slicing the numerator at its
order, which is compared with k first.  An inexact division raises
NotDivisibleError.

Text grammar (shared by every file format): polynomials are written
"c0 + c1*x + c2*x^2" with coefficients "p/q" over Q or integers over F_p
and exponents at most MAX_EXPONENT; an element is a polynomial, optionally
followed by a parenthesized denominator "/(den)" with den(0) != 0.
Whitespace is ignored.  :func:`parse_poly` returns a trimmed polynomial,
and over den = 1 it is canonical as it stands, so :func:`parse_element`
builds the element directly and runs :func:`elem` only on a fraction.
A document's cells that are exactly "0" never reach the grammar: that
one zero shortcut lives in :func:`serialize.parse_matrix`.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple, Union

from . import poly
from .errors import (
    FieldMismatchError,
    NonUnitError,
    NotDivisibleError,
    ParseError,
)
from .fields import FieldSpec, Scalar
from .poly import Poly

Valuation = Union[int, float]  # nonnegative int, or math.inf for zero

INFINITE = math.inf

# Largest exponent of x the text grammar accepts; checked before the
# coefficient tuple is allocated.
MAX_EXPONENT = 10_000


class LocalElem(NamedTuple):
    """Canonical fraction in k[x]_(x).  Construct via :func:`elem`."""

    field: FieldSpec
    num: Poly
    den: Poly

    def _check(self, other: "LocalElem") -> None:
        try:
            same = self.field is other.field or self.field == other.field
        except AttributeError:  # not an element; a tuple's + and * do not apply
            raise TypeError(f"a ring element does not combine with "
                            f"{type(other).__name__}") from None
        if not same:
            raise FieldMismatchError(
                f"mixed fields {self.field.label} and {other.field.label}"
            )

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "LocalElem") -> "LocalElem":
        self._check(other)
        K = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            if len(b) == 1:
                return LocalElem(K, poly.add(K, a, c), b)
            return elem(K, poly.add(K, a, c), b)
        if len(b) == 1:
            return LocalElem(K, poly.add(K, poly.mul(K, a, d), c), d)
        if len(d) == 1:
            return LocalElem(K, poly.add(K, a, poly.mul(K, c, b)), b)
        g = poly.gcd(K, b, d)
        if len(g) == 1:
            num = poly.add(K, poly.mul(K, a, d), poly.mul(K, c, b))
            return LocalElem(K, num, poly.mul(K, b, d))
        # g(0) = 1 makes b/g and d/g keep constant term 1.  t is coprime
        # to b/g and d/g, so only t/g can still cancel.
        g = poly.scale(K, g, K.inv(g[0]))
        b = poly.exact_quotient(K, b, g)
        d = poly.exact_quotient(K, d, g)
        t = elem(K, poly.add(K, poly.mul(K, a, d), poly.mul(K, c, b)), g)
        return LocalElem(K, t.num, poly.mul(K, t.den, poly.mul(K, b, d)))

    def __sub__(self, other: "LocalElem") -> "LocalElem":
        return self + (-other)

    def __neg__(self) -> "LocalElem":
        return LocalElem(self.field, poly.neg(self.field, self.num), self.den)

    def __mul__(self, other: "LocalElem") -> "LocalElem":
        self._check(other)
        K = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return zero(K)
        # cross-cancel a/d and c/b; a/b and c/d are already reduced
        if len(d) > 1 and not _is_monomial(a):
            r = elem(K, a, d)
            a, d = r.num, r.den
        if len(b) > 1 and not _is_monomial(c):
            r = elem(K, c, b)
            c, b = r.num, r.den
        den = d if len(b) == 1 else b if len(d) == 1 else poly.mul(K, b, d)
        return LocalElem(K, poly.mul(K, a, c), den)

    def __rmul__(self, other):
        # int * tuple would repeat the tuple
        return NotImplemented

    def __truediv__(self, other: "LocalElem") -> "LocalElem":
        """Exact division inside R; raises NotDivisibleError otherwise."""
        self._check(other)
        if not other.num:
            raise ZeroDivisionError("division by zero")
        if not self.num:
            return zero(self.field)
        v = poly.order(other.num)
        if v:
            self = x_shift(self, -v)
            other = x_shift(other, -v)
        return self * inverse(other)

    @property
    def valuation(self) -> Valuation:
        """Order at the maximal ideal (x); +inf for zero."""
        o = poly.order(self.num)
        return INFINITE if o is None else o

    def __repr__(self) -> str:
        return f"LocalElem({self.field.label}, {format_element(self)!r})"


def elem(field: FieldSpec, num: Poly, den: Poly = None) -> LocalElem:
    """Canonicalize num/den: reduce the fraction, normalize den(0) = 1."""
    K = field
    if den is None:
        den = poly.one(K)
    num = poly.trim(K, num)
    den = poly.trim(K, den)
    if not den or den[0] == 0:
        raise NonUnitError("denominator is not a unit of the local ring")
    if not num:
        return LocalElem(K, (), poly.one(K))
    return LocalElem(K, *poly.lowest_terms(K, num, den))


def _is_monomial(f: Poly) -> bool:
    """c * x^k: coprime to every denominator, since den(0) != 0."""
    return not any(f[:-1])


# One shared zero and one per field: LocalElem is immutable, and the
# caches hold one entry per field in use.
@lru_cache(maxsize=None)
def zero(field: FieldSpec) -> LocalElem:
    return LocalElem(field, (), poly.one(field))


@lru_cache(maxsize=None)
def one(field: FieldSpec) -> LocalElem:
    return LocalElem(field, poly.one(field), poly.one(field))


def x_power(field: FieldSpec, k: int) -> LocalElem:
    """The monomial x^k, k >= 0."""
    if k < 0:
        raise ValueError("negative power of x is not in the local ring")
    return LocalElem(field, poly.x_pow(field, k), poly.one(field))


def inverse(e: LocalElem) -> LocalElem:
    """Inverse of a unit (valuation 0); NonUnitError otherwise."""
    if e.valuation != 0:
        raise NonUnitError("element has positive valuation (or is zero)")
    K = e.field
    num, den = e.den, e.num
    c = den[0]
    if c != K.one:
        cinv = K.inv(c)
        num = poly.scale(K, num, cinv)
        den = poly.scale(K, den, cinv)
    return LocalElem(K, num, den)


def x_shift(e: LocalElem, k: int) -> LocalElem:
    """Multiply by x^k; for k < 0 requires valuation(e) >= -k."""
    if not e.num or k == 0:
        return e
    K = e.field
    if k > 0:
        return LocalElem(K, poly.shift_up(K, e.num, k), e.den)
    if poly.order(e.num) < -k:
        raise NotDivisibleError("valuation too small for division by x^%d" % (-k))
    return LocalElem(K, e.num[-k:], e.den)


def unit_part(e: LocalElem) -> LocalElem:
    """The unit u with e = u * x^valuation(e); undefined (error) for zero."""
    if not e.num:
        raise NonUnitError("zero has no unit part")
    o = poly.order(e.num)
    return LocalElem(e.field, e.num[o:], e.den) if o else e


# ---------------------------------------------------------------------------
# Text grammar


_TERMS_RE = re.compile(r"[+-]?[^+-]+")
_TERM_RE = re.compile(
    r"^([+-])?"
    r"(\d+(?:/\d+)?)?"
    r"(?:\*?(x)(?:\^(\d+))?)?$"
)
_EXPONENT_WIDTH = len(str(MAX_EXPONENT))


def _strip_outer_parens(s: str) -> str:
    """Drop the k outer pairs whose "(" closes at the matching ")" or not
    at all; the matches come from one pass, so the cost is linear."""
    if not (s.startswith("(") and s.endswith(")")):
        return s
    match, opened = {}, []
    for i, ch in enumerate(s):
        if ch == "(":
            opened.append(i)
        elif ch == ")" and opened:
            match[opened.pop()] = i
    n, k = len(s), 0
    while (k < n - 1 - k and s[k] == "(" and s[n - 1 - k] == ")"
           and match.get(k, n) >= n - 1 - k):
        k += 1
    return s[k:n - k]


def _split_fraction(s: str) -> tuple[str, str | None]:
    if "/(" not in s:  # a polynomial; no need to scan
        return s, None
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i + 1 < len(s) and s[i + 1] == "(":
            return s[:i], s[i + 1 :]
    return s, None


def _exponent(token: str) -> int:
    # digit count first: int() refuses tokens over 4300 digits, leading
    # zeros included
    digits = token if len(token) <= _EXPONENT_WIDTH else token.lstrip("0")
    if len(digits) <= _EXPONENT_WIDTH:
        k = int(digits or "0")
        if k <= MAX_EXPONENT:
            return k
    raise ParseError(f"exponent {token[:20]} exceeds the limit {MAX_EXPONENT}")


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse "c0 + c1*x + c2*x^2" (whitespace already removed); the
    result is trimmed."""
    s = _strip_outer_parens(text)
    if not s:
        raise ParseError("empty polynomial")
    if "(" in s or ")" in s:
        raise ParseError(f"unexpected parentheses in polynomial {text[:20]!r}")
    terms = _TERMS_RE.findall(s)
    if "".join(terms) != s:  # so there is at least one term
        raise ParseError(f"malformed polynomial {text[:20]!r}")
    coeffs: dict[int, Scalar] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"bad term {term[:20]!r} in polynomial {text[:20]!r}")
        sign, coeff_tok, xpart, exp_tok = m.groups()
        # a term holds a character other than a sign, so a match has a
        # coefficient or an x
        c = field.one if coeff_tok is None else field.parse_scalar(coeff_tok)
        if sign == "-":
            c = field.neg(c)
        d = 0 if xpart is None else (1 if exp_tok is None else _exponent(exp_tok))
        if d in coeffs:
            coeffs[d] = field.add(coeffs[d], c)
        else:
            coeffs[d] = c
    out = [field.zero] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return poly.trim(field, out)


def parse_element(field: FieldSpec, text: str) -> LocalElem:
    """Parse an element of R from the shared text grammar."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty ring element")
    num_part, den_part = _split_fraction(s)
    num = parse_poly(field, num_part)
    if den_part is None:  # trimmed num over den = 1: canonical already
        z = zero(field)
        return LocalElem(field, num, z.den) if num else z
    den = parse_poly(field, den_part)
    if poly.eval0(field, den) == field.zero:
        raise ParseError(f"denominator vanishes at x = 0 in {text[:20]!r}")
    return elem(field, num, den)


def format_poly(field: FieldSpec, f: Poly) -> str:
    if not f:
        return "0"
    parts: list[str] = []
    for d, c in enumerate(f):
        if c == 0:
            continue
        negative = field.is_rationals and c < 0
        mag = -c if negative else c
        if d == 0:
            body = field.format_scalar(mag)
        else:
            xs = "x" if d == 1 else f"x^{d}"
            body = xs if mag == field.one else f"{field.format_scalar(mag)}*{xs}"
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def format_element(e: LocalElem) -> str:
    num = format_poly(e.field, e.num)
    if len(e.den) == 1:
        return num
    den = format_poly(e.field, e.den)
    if " " in num:
        num = f"({num})"
    return f"{num}/({den})"
