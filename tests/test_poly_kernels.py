"""The per-field polynomial kernels against the generic FieldSpec loops.

The reference functions below are the field-generic loops the kernels
replaced: every coefficient goes through a field method, and the gcd is
Euclid over the field.  Over Q they compute in :class:`FractionQ`, with
``Fraction`` values only and not through the package's scalar API.
Results must be equal tuples with canonical coefficients and no trailing
zero: over Q an ``int`` when integral and a ``Fraction`` with
denominator > 1 otherwise, over F_p an ``int`` in [0, p).  Plain equality
would accept ``1 == Fraction(1)``, so the types are checked too.  Kernel
inputs are canonical as well (:func:`canon`), as every value the package
builds is.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodica import FieldSpec, NotDivisibleError
from periodica import poly

FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(101))


# -- reference: the generic loops ---------------------------------------------

class FractionQ:
    """Q for the reference loops: every value is a ``Fraction``."""

    p = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return Fraction(a) + b

    @staticmethod
    def mul(a, b):
        return Fraction(a) * b

    @staticmethod
    def neg(a):
        return -Fraction(a)

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


def ref(field):
    """The field the reference loops compute in."""
    return FractionQ if field.p == 0 else field


def canon(v):
    """v with every integral ``Fraction`` in it, nested tuples included,
    written as an ``int``: the form the package keeps Q coefficients in."""
    if type(v) is tuple:
        return tuple([canon(c) for c in v])
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def is_canonical(field, c):
    if field.p:
        return type(c) is int and 0 <= c < field.p
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def ref_trim(field, coeffs):
    field = ref(field)
    n = len(coeffs)
    while n and coeffs[n - 1] == field.zero:
        n -= 1
    return tuple(coeffs[:n])


def ref_add(field, f, g):
    field = ref(field)
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = field.add(out[i], c)
    return ref_trim(field, out)


def ref_neg(field, f):
    field = ref(field)
    return tuple(field.neg(c) for c in f)


def ref_mul(field, f, g):
    field = ref(field)
    if not f or not g:
        return ()
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b == 0:
                continue
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return ref_trim(field, out)


def ref_scale(field, f, c):
    field = ref(field)
    if c == field.zero:
        return ()
    return ref_trim(field, [field.mul(a, c) for a in f])


def ref_divmod(field, f, g):
    field = ref(field)
    q = [field.zero] * max(len(f) - len(g) + 1, 0)
    rem = list(f)
    ginv = field.inv(g[-1])
    while len(rem) >= len(g):
        c = rem[-1]
        if c == 0:
            rem.pop()
            continue
        k = len(rem) - len(g)
        factor = field.mul(c, ginv)
        q[k] = factor
        for i, b in enumerate(g):
            rem[k + i] = field.add(rem[k + i], field.neg(field.mul(factor, b)))
        rem.pop()
    return ref_trim(field, q), ref_trim(field, rem)


def ref_monic(field, f):
    field = ref(field)
    if not f:
        return ()
    return ref_scale(field, f, field.inv(f[-1]))


def ref_gcd(field, f, g):
    a, b = f, g
    while b:
        a, b = b, ref_divmod(field, a, b)[1]
    return ref_monic(field, a)


# -- inputs --------------------------------------------------------------------

def scalars(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.one_of(
        st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))),
        st.builds(Fraction, st.integers(-9, 9)),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-10**12, 10**12),
                  st.integers(1, 10**15)),
    )


def nonzero(field):
    return scalars(field).filter(lambda c: c != 0)


def polys(field, max_len=6):
    zero = field.zero
    return st.one_of(
        st.just(()),
        nonzero(field).map(lambda c: (c,)),
        st.tuples(st.integers(0, 4), nonzero(field)).map(
            lambda kc: (zero,) * kc[0] + (kc[1],)),
        st.lists(scalars(field), min_size=1, max_size=max_len).map(
            lambda cs: ref_trim(field, cs)),
    )


@st.composite
def field_and_pair(draw):
    """A field and two polynomials; half the time with a common factor."""
    field = draw(st.sampled_from(FIELDS))
    f = draw(polys(field))
    g = draw(polys(field))
    if draw(st.booleans()):
        h = draw(polys(field, max_len=4))
        f, g = ref_mul(field, f, h), ref_mul(field, g, h)
    return field, f, g, draw(scalars(field))


def assert_same(field, got, want):
    assert got == want
    assert not got or got[-1] != 0
    for c in got:
        assert is_canonical(field, c), (field, got)


Q = FIELDS[0]
F3 = FIELDS[2]


@settings(max_examples=300, deadline=None)
@given(field_and_pair())
@example((Q, (), (), Fraction(0)))
@example((Q, (Fraction(0), Fraction(1, 3)), (Fraction(7, 10**15),), Fraction(1)))
@example((Q, (Fraction(-2), Fraction(0), Fraction(4)),
          (Fraction(1), Fraction(0), Fraction(-2)), Fraction(5, 3)))
@example((Q, (Fraction(0), Fraction(-1)), (Fraction(2), Fraction(1, 2)),
          Fraction(-1)))
@example((F3, (0, 0, 2), (1, 2, 1), 2))
def test_kernels_match_generic_loops(case):
    field, f, g, c = canon(case)
    assert_same(field, poly.add(field, f, g), ref_add(field, f, g))
    assert_same(field, poly.neg(field, f), ref_neg(field, f))
    assert_same(field, poly.mul(field, f, g), ref_mul(field, f, g))
    assert_same(field, poly.mul(field, g, f), ref_mul(field, f, g))
    assert_same(field, poly.scale(field, f, c), ref_scale(field, f, c))
    assert_same(field, poly.monic(field, f), ref_monic(field, f))
    assert_same(field, poly.gcd(field, f, g), ref_gcd(field, f, g))


@st.composite
def product_pairs(draw):
    """A field and up to five pairs of polynomials; half the time the
    second half of the pairs cancels the first: (f, -g) after (f, g)."""
    field = draw(st.sampled_from(FIELDS))
    pairs = draw(st.lists(st.tuples(polys(field), polys(field)), max_size=5))
    if draw(st.booleans()):
        pairs += [(f, ref_neg(field, g)) for f, g in pairs]
    return field, pairs


@settings(max_examples=300, deadline=None)
@given(product_pairs())
@example((Q, []))
@example((Q, [((Fraction(1, 2),), (Fraction(2, 3), Fraction(1))),
              ((Fraction(1, 3),), (Fraction(-1, 1), Fraction(-1, 2)))]))
@example((F3, [((1, 2), (1, 1)), ((2, 1), (2, 2)), ((), (1,))]))
def test_sum_of_products_is_the_sum_of_the_products(case):
    field, pairs = canon(case)
    want = ()
    for f, g in pairs:
        want = poly.add(field, want, poly.mul(field, f, g))
    assert_same(field, poly.sum_of_products(field, pairs), want)


DIVISION_FIELDS = (Q, F3, FIELDS[3])


@st.composite
def division_case(draw):
    """A field, a quotient q, a nonzero divisor g and f = q g + r for a
    small r, zero half the time."""
    field = draw(st.sampled_from(DIVISION_FIELDS))
    q = draw(polys(field))
    g = draw(polys(field).filter(bool))
    r = draw(polys(field, max_len=3)) if draw(st.booleans()) else ()
    return field, q, g, ref_add(field, ref_mul(field, q, g), r)


@settings(max_examples=300, deadline=None)
@given(division_case())
# over Q: the lead 2 of 2x + 1 does not divide the lead of x^2 - 2; the
# lead 1 of x + 1 divides every lead of x^2, which leaves remainder 1
@example((Q, (), (Fraction(1), Fraction(2)),
          (Fraction(-2), Fraction(0), Fraction(1))))
@example((Q, (), (Fraction(1), Fraction(1)),
          (Fraction(0), Fraction(0), Fraction(1))))
def test_exact_quotient_matches_reference_division(case):
    field, q, g, f = canon(case)
    qg = canon(ref_mul(field, q, g))
    assert ref_divmod(field, qg, g) == (q, ())
    assert_same(field, poly.exact_quotient(field, qg, g), q)
    q_ref, r_ref = ref_divmod(field, f, g)
    if r_ref:
        with pytest.raises(NotDivisibleError):
            poly.exact_quotient(field, f, g)
    else:
        assert_same(field, poly.exact_quotient(field, f, g), q_ref)


def test_exact_quotient_by_zero_raises():
    for field in DIVISION_FIELDS:
        with pytest.raises(ZeroDivisionError):
            poly.exact_quotient(field, poly.one(field), ())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gcd_recovers_common_factor(data):
    field = data.draw(st.sampled_from(FIELDS))
    h = data.draw(polys(field, max_len=4).filter(lambda h: len(h) > 1))
    u = data.draw(polys(field).filter(bool))
    v = data.draw(polys(field).filter(bool))
    f, g = canon((ref_mul(field, h, u), ref_mul(field, h, v)))
    got = poly.gcd(field, f, g)
    assert_same(field, got, ref_gcd(field, f, g))
    assert len(got) >= len(h)
    assert ref_divmod(field, got, h)[1] == ()


F101 = FIELDS[3]


def leads(field):
    """Scalars other than 0 and 1: the lead of a polynomial that is not
    monic."""
    return st.integers(2, field.p - 1)


def with_lead(field, f, c):
    return ref_scale(field, f, field.mul(c, field.inv(f[-1])))


@st.composite
def fp_gcd_case(draw):
    """A prime field, a kind and two nonzero polynomials of that kind,
    neither of them monic."""
    field = draw(st.sampled_from((F3, F101)))
    kind = draw(st.sampled_from(("any", "common", "constant", "equal",
                                 "coprime")))
    f = draw(polys(field, max_len=8).filter(bool))
    g = draw(polys(field, max_len=8).filter(bool))
    if kind == "common":
        h = draw(polys(field, max_len=4).filter(lambda h: len(h) > 1))
        f, g = ref_mul(field, f, h), ref_mul(field, g, h)
    elif kind == "constant":
        g = (1,)
    elif kind == "equal":
        g = f
    elif kind == "coprime":
        # g = f h + c: any common factor of f and g divides c != 0
        h = draw(polys(field, max_len=4).filter(lambda h: len(h) > 1))
        g = ref_add(field, ref_mul(field, f, h), (draw(nonzero(field)),))
    a = draw(leads(field))
    b = a if kind == "equal" else draw(leads(field))
    return field, kind, with_lead(field, f, a), with_lead(field, g, b)


@settings(max_examples=400, deadline=None)
@given(fp_gcd_case())
@example((F3, "constant", (0, 2), (2,)))
@example((F3, "equal", (2, 0, 2), (2, 0, 2)))
@example((F101, "coprime", (5, 0, 7), (6, 0, 7)))
def test_fp_gcd_matches_reference_euclid(case):
    field, kind, f, g = case
    got = poly.gcd(field, f, g)
    assert_same(field, got, ref_gcd(field, f, g))
    assert poly.gcd(field, g, f) == got
    if kind in ("constant", "coprime"):
        assert got == (1,)
    elif kind == "equal":
        assert got == ref_monic(field, f)
