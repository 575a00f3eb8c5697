"""Dense univariate polynomials over a :class:`FieldSpec`.

A polynomial is a tuple of coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  All functions
are pure and take the field explicitly.

Every arithmetic function checks ``field.p`` once and then runs a kernel
for that field on plain values, so the inner loops make no per-coefficient
``FieldSpec`` calls:

- over Q, a coefficient is an ``int`` when it is integral and a
  ``Fraction`` with denominator > 1 otherwise (``fields.q_canon``), and
  every kernel returns coefficients of that form.  A product with a
  constant or a monomial only scales or shifts, and turns an integral
  scaled coefficient into an ``int``; a product of two monomials, over
  either field, multiplies only their lead coefficients, so x^j costs no
  arithmetic per degree; a general product convolves the integer
  numerators over the product of the two lcm denominators d and emits
  c // d where d divides c and ``Fraction(c, d)`` only where it does
  not.  The gcd is the primitive pseudo-remainder sequence in Z[x]
  (Knuth, TAOCP vol. 2, 4.6.1; Brown, J. ACM 18, 1971): clear
  denominators, take primitive parts, remove the content after each
  pseudo-remainder, and make the last nonzero one monic.  The monic gcd
  is unique, so it equals the Euclidean gcd over Q.  Division is exact in
  Z[x] by the primitive part of the divisor, with no ``Fraction``
  arithmetic in the loop.
- over F_p, coefficients are ints in [0, p).  Products are accumulated as
  Python ints and reduced once per output coefficient; a division inverts
  the divisor's lead once and reduces a remainder coefficient only when it
  is read as a leading coefficient.  The gcd is Euclid on remainders
  only: each step reduces one list in place by the other, keeping every
  coefficient in [0, p), and builds no quotient.

Outside the gcd, division is :func:`exact_quotient`: callers divide only
by a factor they know, so a remainder is an error (``NotDivisibleError``),
never a value.

:func:`lowest_terms` is the kernel of ``localring.elem``: num / den
reduced, with den(0) = 1.  Over Q it clears both denominators once,
stays in Z[x] for the primitive PRS gcd and the two checked divisions by
it (the division of :func:`exact_quotient`), and builds a ``Fraction``
only for an output coefficient that is not integral.  Over F_p it runs
Euclid and the checked division on ints and inverts the new den(0) once.

:func:`sum_of_products` is the kernel of a matrix product's cell
(``matrix._product_rows``): the sum of several products f * g,
accumulated unreduced and reduced once per output coefficient, as one
product is.  Over F_p it sums Python ints and reduces mod p at the end;
over Q it sums integer numerators over one common denominator, the lcm
of the pairs' denominators, and never adds two ``Fraction`` values.

``scale`` multiplies by one field element through ``FieldSpec.mul``, the
scalar API.  Result tuples are built from lists, not generator
expressions: ``tuple(genexpr)`` keeps a generator frame per call and
raised the peak memory of the batch workloads measurably.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm
from typing import Optional, Sequence, Tuple

from .errors import NotDivisibleError
from .fields import FieldSpec, Scalar, q_canon

Poly = Tuple[Scalar, ...]

ZERO: Poly = ()

_INEXACT = "polynomial division leaves a remainder"


def trim(field: FieldSpec, coeffs: Sequence[Scalar]) -> Poly:
    z = field.zero
    n = len(coeffs)
    while n and coeffs[n - 1] == z:
        n -= 1
    return tuple(coeffs[:n])


def _trimmed(out: list) -> Poly:
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def one(field: FieldSpec) -> Poly:
    return (field.one,)


def x_pow(field: FieldSpec, n: int) -> Poly:
    return (field.zero,) * n + (field.one,)


def order(f: Poly) -> Optional[int]:
    """Order of vanishing at x = 0; None for the zero polynomial."""
    for i, c in enumerate(f):
        if c != 0:
            return i
    return None


def add(field: FieldSpec, f: Poly, g: Poly) -> Poly:
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    p = field.p
    if p:
        out = [(a + b) % p for a, b in zip(f, g)]
    else:
        out = [q_canon(a + b) for a, b in zip(f, g)]
    if len(f) > len(g):
        out += f[len(g):]
        return tuple(out)
    return _trimmed(out)


def neg(field: FieldSpec, f: Poly) -> Poly:
    p = field.p
    if p:
        return tuple([-c % p for c in f])
    return tuple([-c for c in f])


def _convolve_into(out: list, f: Sequence[int], g: Sequence[int]) -> None:
    """Add the integer coefficients of f * g to ``out``, unreduced."""
    terms = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in terms:
                out[i + j] += a * b


def _convolve(f: Sequence[int], g: Sequence[int]) -> list:
    """Integer coefficients of f * g, unreduced."""
    out = [0] * (len(f) + len(g) - 1)
    _convolve_into(out, f, g)
    return out


def _over_common_den(f: Poly) -> tuple[list, int]:
    """Integer numerators of f over the lcm of its denominators."""
    d = lcm(*[c.denominator for c in f])
    if d == 1:
        return [c.numerator for c in f], 1
    return [c.numerator * (d // c.denominator) for c in f], d


def _over(nums: Sequence[int], d: int) -> Poly:
    """The Q coefficients n / d: n // d where d divides n, else a Fraction."""
    if d == 1:
        return tuple(nums)
    return tuple([n // d if n % d == 0 else Fraction(n, d) for n in nums])


def mul(field: FieldSpec, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    if len(f) > len(g):
        f, g = g, f
    p = field.p
    if not any(f[:-1]):
        # c * x^k: shift and scale
        c = f[-1]
        if c == 1:
            return f[:-1] + g
        if not any(g[:-1]):
            # c x^k * d x^l: the lead coefficients only
            d = c * g[-1]
            return f[:-1] + g[:-1] + (d % p if p else q_canon(d),)
        if p:
            return f[:-1] + tuple([c * b % p for b in g])
        return f[:-1] + tuple([q_canon(c * b) for b in g])
    if p:
        return tuple([c % p for c in _convolve(f, g)])
    if not any(g[:-1]):
        c = g[-1]
        return g[:-1] + tuple([q_canon(a * c) for a in f])
    fn, fd = _over_common_den(f)
    gn, gd = _over_common_den(g)
    return _over(_convolve(fn, gn), fd * gd)


def sum_of_products(field: FieldSpec, pairs: Sequence[tuple]) -> Poly:
    """The sum of f * g over the (f, g) in ``pairs``, each output
    coefficient reduced once: over F_p the products are summed as Python
    ints and reduced mod p at the end; over Q each pair is written over
    the product of its two lcm denominators, and the integer numerators
    are summed over the lcm D of those products and divided by D once."""
    out = [0] * (max([len(f) + len(g) for f, g in pairs], default=1) - 1)
    p = field.p
    if p:
        for f, g in pairs:
            _convolve_into(out, f, g)
        return _trimmed([c % p for c in out])
    cleared = []
    for f, g in pairs:
        fn, fd = _over_common_den(f)
        gn, gd = _over_common_den(g)
        cleared.append((fn, gn, fd * gd))
    d = lcm(*[e for _, _, e in cleared])
    for fn, gn, e in cleared:
        _convolve_into(out, fn if e == d else [c * (d // e) for c in fn], gn)
    return _over(_trimmed(out), d)


def scale(field: FieldSpec, f: Poly, c: Scalar) -> Poly:
    if c == field.zero:
        return ()
    mul = field.mul
    return trim(field, [mul(a, c) for a in f])


def shift_up(field: FieldSpec, f: Poly, n: int) -> Poly:
    """Multiply by x^n."""
    if not f:
        return ()
    return (field.zero,) * n + f


def _fp_divmod(f: Poly, g: Poly, p: int):
    """Quotient and trimmed reduced remainder list over F_p."""
    n = len(g) - 1
    ginv = pow(g[-1], -1, p)
    low = g[:-1]
    rem = list(f)
    q = [0] * (len(f) - n)
    while len(rem) > n:
        c = rem.pop() % p
        if c:
            c = c * ginv % p
            k = len(rem) - n
            q[k] = c
            for i, b in enumerate(low, k):
                rem[i] -= c * b
    rem = [c % p for c in rem]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _z_quotient(f: Sequence[int], g: Sequence[int]) -> list:
    """f / g in Z[x].  When g is primitive and divides f in Q[x], the lead
    of g divides every leading coefficient met (Gauss's lemma), so a lead
    that does not divide, or a remainder left over, means that g does not
    divide f."""
    n = len(g) - 1
    lead = g[-1]
    low = [(i, b) for i, b in enumerate(g[:-1]) if b]
    q = [0] * (len(f) - n)
    rem = list(f)
    while len(rem) > n:
        t = rem.pop()
        if t:
            t, r = divmod(t, lead)
            if r:
                raise NotDivisibleError(_INEXACT)
            k = len(rem) - n
            q[k] = t
            for i, b in low:
                rem[k + i] -= t * b
    if any(rem):
        raise NotDivisibleError(_INEXACT)
    return q


def _q_quotient(f: Poly, g: Poly) -> Poly:
    """f / g by division in Z[x] by the primitive part G of g."""
    fn, fd = _over_common_den(f)
    gn, gd = _over_common_den(g)
    c = igcd(*gn)
    q = _z_quotient(fn, gn if c == 1 else [a // c for a in gn])
    # f = fn / fd and g = c G / gd, so f / g = q gd / (c fd)
    return _over([a * gd for a in q], c * fd)


def _fp_quotient(f: Poly, g: Poly, p: int) -> Poly:
    q, rem = _fp_divmod(f, g, p)
    if rem:
        raise NotDivisibleError(_INEXACT)
    return tuple(q)


def exact_quotient(field: FieldSpec, f: Poly, g: Poly) -> Poly:
    """f / g; NotDivisibleError when g does not divide f."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    p = field.p
    return _fp_quotient(f, g, p) if p else _q_quotient(f, g)


def monic(field: FieldSpec, f: Poly) -> Poly:
    if not f:
        return ()
    lead = f[-1]
    if lead == field.one:
        return f
    return scale(field, f, field.inv(lead))


def _primitive(f: Sequence[int]) -> list:
    c = igcd(*f)
    return list(f) if c == 1 else [a // c for a in f]


def _prem(f: list, g: list) -> list:
    """A nonzero multiple of the remainder of f by g, both in Z[x]."""
    n = len(g) - 1
    lead = g[-1]
    low = [(i, b) for i, b in enumerate(g[:-1]) if b]
    rem = list(f)
    while len(rem) > n:
        c = rem.pop()
        if c:
            h = igcd(c, lead)
            a, c = lead // h, c // h
            if a != 1:
                rem = [a * t for t in rem]
            k = len(rem) - n
            for i, b in low:
                rem[k + i] -= c * b
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _z_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """Primitive gcd of a and b in Z[x], up to sign; [1] when they are
    coprime.  Both are nonzero."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _primitive(r)


def _fp_scaled(f: Sequence[int], c: int, p: int) -> Poly:
    """c f over F_p, for a unit c."""
    return tuple(f) if c == 1 else tuple([t * c % p for t in f])


def _fp_gcd(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd of nonzero f and g over F_p.  Euclid on two lists: each
    step reduces a mod b in place, keeps no quotient and reduces every
    updated coefficient mod p, so a popped lead is already reduced."""
    a, b = list(f), list(g)
    while len(b) > 1:
        n = len(b) - 1
        binv = pow(b[-1], -1, p)
        while len(a) > n:
            c = a.pop()
            if c:
                c = c * binv % p
                k = len(a) - n
                for i in range(n):
                    a[k + i] = (a[k + i] - c * b[i]) % p
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    if b:
        return (1,)
    return _fp_scaled(a, pow(a[-1], -1, p), p)


def gcd(field: FieldSpec, f: Poly, g: Poly) -> Poly:
    """Monic gcd: primitive PRS in Z[x] over Q, Euclid over F_p."""
    if not f or not g:
        return monic(field, f or g)
    p = field.p
    if p:
        return _fp_gcd(f, g, p)
    b = _z_gcd(_over_common_den(f)[0], _over_common_den(g)[0])
    if len(b) == 1:
        return (1,)
    return _over(b, b[-1])


def _q_lowest_terms(num: Poly, den: Poly) -> tuple:
    a, ad = _over_common_den(num)
    b, bd = _over_common_den(den)
    g = _z_gcd(a, b)
    if len(g) > 1:
        a, b = _z_quotient(a, g), _z_quotient(b, g)
    # num / den = (a / ad) / (b / bd) = a bd / (b ad); divide by b(0) ad
    c = b[0]
    return _over([t * bd for t in a], c * ad), _over(b, c)


def _fp_lowest_terms(num: Poly, den: Poly, p: int) -> tuple:
    g = _fp_gcd(num, den, p)
    if len(g) > 1:
        num, den = _fp_quotient(num, g, p), _fp_quotient(den, g, p)
    c = pow(den[0], -1, p)
    return _fp_scaled(num, c, p), _fp_scaled(den, c, p)


def lowest_terms(field: FieldSpec, num: Poly, den: Poly) -> tuple:
    """(n, d) with n / d = num / den, gcd(n, d) = 1 and d(0) = 1, for a
    nonzero num and a den with den(0) != 0."""
    if len(den) == 1 and den[0] == 1:
        return num, den
    p = field.p
    return _fp_lowest_terms(num, den, p) if p else _q_lowest_terms(num, den)


def eval0(field: FieldSpec, f: Poly) -> Scalar:
    return f[0] if f else field.zero
