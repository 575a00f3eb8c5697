"""The form of a coefficient over Q: an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise, never a ``float``.

Every polynomial kernel and every element operation must return that form
from inputs in that form, and its value must equal the ``Fraction``-only
reference loops of ``test_poly_kernels``.  ``int`` and ``Fraction`` compare
equal by value, so the type is checked on its own.
"""

from fractions import Fraction
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_poly_kernels import (
    FractionQ,
    canon,
    is_canonical,
    ref_add,
    ref_divmod,
    ref_gcd,
    ref_monic,
    ref_mul,
    ref_neg,
    ref_scale,
)
from thelpers import random_complex

from periodica import FieldSpec, elem, inverse, reduce, x_shift
from periodica import poly

Q = FieldSpec(0)


def scalars():
    return st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-10**12, 10**12),
                  st.integers(1, 10**15)),
    ).map(canon)


def nonzero():
    return scalars().filter(bool)


def polys(max_len=5):
    """Zero, constants, monomials c x^k (the shortcuts of ``mul``) and
    general polynomials of degree < max_len, like the entries of
    ``thelpers.random_complex``."""
    return st.one_of(
        st.just(()),
        nonzero().map(lambda c: (c,)),
        st.tuples(st.integers(0, 3), nonzero()).map(
            lambda kc: (0,) * kc[0] + (kc[1],)),
        st.lists(scalars(), min_size=1, max_size=max_len).map(
            lambda cs: canon(poly.trim(Q, cs))),
    )


def assert_form(got, want=None):
    """got is a trimmed tuple of canonical coefficients, equal to want."""
    assert type(got) is tuple
    assert not got or got[-1] != 0
    for c in got:
        assert is_canonical(Q, c), got
    if want is not None:
        assert got == want


def ref_lowest(num, den):
    """num / den reduced with den(0) = 1, by Euclid over ``Fraction``."""
    g = ref_gcd(Q, num, den)
    n, d = ref_divmod(Q, num, g)[0], ref_divmod(Q, den, g)[0]
    c = FractionQ.inv(d[0])
    return ref_scale(Q, n, c), ref_scale(Q, d, c)


@settings(max_examples=300, deadline=None)
@given(polys(), polys(), nonzero())
# integral results of fractional operands: each shortcut of mul, the
# convolution, add, scale and the quotient
@example((Fraction(1, 2),), (2, 4), 2)
@example((Fraction(1, 3), Fraction(2, 3)), (0, 3), Fraction(3, 2))
@example((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)),
         Fraction(-2, 3))
@example((Fraction(-1, 2), 0, Fraction(3, 2)), (Fraction(1, 2), 0, Fraction(1, 2)),
         -1)
def test_polynomial_kernels_keep_the_form(f, g, c):
    assert_form(poly.add(Q, f, g), ref_add(Q, f, g))
    assert_form(poly.neg(Q, f), ref_neg(Q, f))
    fg = ref_mul(Q, f, g)
    assert_form(poly.mul(Q, f, g), fg)
    assert_form(poly.mul(Q, g, f), fg)
    monomial = (0, 0, c)
    assert_form(poly.mul(Q, f, monomial), ref_mul(Q, f, monomial))
    assert_form(poly.mul(Q, monomial, f), ref_mul(Q, f, monomial))
    assert_form(poly.scale(Q, f, c), ref_scale(Q, f, c))
    assert_form(poly.monic(Q, f), ref_monic(Q, f))
    assert_form(poly.gcd(Q, f, g), ref_gcd(Q, f, g))
    if g:
        assert_form(poly.exact_quotient(Q, canon(fg), g), f)
    if f and g and g[0]:
        num, den = poly.lowest_terms(Q, f, g)
        want = ref_lowest(f, g)
        assert_form(num, want[0])
        assert_form(den, want[1])


@st.composite
def elements(draw):
    """An element from a numerator and a denominator with den(0) != 0,
    and the pair it was built from."""
    num = draw(polys())
    den = draw(polys().filter(lambda d: d and d[0]))
    return elem(Q, num, den), num, den


def assert_elem(e, num, den):
    """e is canonical in form and equals num / den."""
    assert_form(e.num)
    assert_form(e.den)
    if num:
        want = ref_lowest(num, den)
    else:
        want = ((), (1,))
    assert (e.num, e.den) == want


@settings(max_examples=300, deadline=None)
@given(elements(), elements(), st.integers(0, 3))
@example((elem(Q, (Fraction(1, 2),)), (Fraction(1, 2),), (1,)),
         (elem(Q, (Fraction(1, 2),), (1, 2)), (Fraction(1, 2),), (1, 2)), 1)
@example((elem(Q, (0, 2), (2, 1)), (0, 2), (2, 1)),
         (elem(Q, (Fraction(2, 3),), (4,)), (Fraction(2, 3),), (4,)), 2)
def test_element_operations_keep_the_form(a_case, b_case, k):
    (a, an, ad), (b, bn, bd) = a_case, b_case
    assert_elem(a, an, ad)
    assert_elem(b, bn, bd)
    # a/b and c/d as Fraction-only cross products
    ab, ba, den = ref_mul(Q, an, bd), ref_mul(Q, bn, ad), ref_mul(Q, ad, bd)
    assert_elem(a + b, ref_add(Q, ab, ba), den)
    assert_elem(a - b, ref_add(Q, ab, ref_neg(Q, ba)), den)
    assert_elem(a * b, ref_mul(Q, an, bn), den)
    if b and b.valuation <= a.valuation:
        v = b.valuation
        assert_elem(a / b, ab[v:], ba[v:])
    if a and a.valuation == 0:
        assert_elem(inverse(a), ad, an)
    assert_elem(x_shift(a, k), (0,) * k + an if an else (), ad)
    if a:
        v = a.valuation
        assert_elem(x_shift(a, -v), ref_divmod(Q, an, (0,) * v + (1,))[0], ad)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 4))
def test_complexes_and_their_reductions_keep_the_form(seed, r0, r1):
    x = random_complex(Random(seed), Q, r0, r1)
    red = reduce(x)
    mats = (x.d0, x.d1, red.minimal.d0, red.minimal.d1, red.into.f0,
            red.into.f1, red.back.f0, red.back.f1)
    for m in mats:
        for e in m.entries:
            assert_form(e.num)
            assert_form(e.den)
            assert e.den[0] == 1 and type(e.den[0]) is int


def test_scalar_api_over_q():
    """Pinned cases of the scalar API; 1 / a of two ints is a float."""
    assert Q.inv(2) == Fraction(1, 2) and type(Q.inv(2)) is Fraction
    assert Q.inv(-1) == -1 and type(Q.inv(-1)) is int
    assert Q.inv(Fraction(1, 3)) == 3 and type(Q.inv(Fraction(1, 3))) is int
    assert Q.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert Q.parse_scalar("4/2") == 2 and type(Q.parse_scalar("4/2")) is int
    assert type(Q.parse_scalar("1/3")) is Fraction
    assert type(Q.parse_scalar("-7")) is int
    for v in (Q.zero, Q.one, Q.of_int(3)):
        assert type(v) is int
    assert (Q.zero, Q.one, Q.of_int(3)) == (0, 1, 3)
    half = Fraction(1, 2)
    assert type(Q.add(half, half)) is int
    assert type(Q.mul(half, 2)) is int
    assert type(Q.mul(half, 3)) is Fraction
    assert Q.neg(half) == Fraction(-1, 2)
