"""Element arithmetic, valuations, and the text grammar."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_element_reference
from test_poly_kernels import canon

from periodica import (
    FieldSpec,
    NonUnitError,
    NotDivisibleError,
    ParseError,
    elem,
    format_element,
    inverse,
    one,
    parse_element,
    unit_part,
    x_shift,
    zero,
)
from periodica import localring, poly, serialize
from periodica.fields import MAX_CHARACTERISTIC, _is_prime

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)


def q(s):
    return parse_element(Q, s)


# -- valuation ---------------------------------------------------------------

def test_zero_and_one_are_shared_per_field():
    rat, f3 = FieldSpec.from_label("Q"), FieldSpec.from_label("Fp:3")
    assert zero(rat) is zero(FieldSpec.rationals())
    assert one(f3) is one(FieldSpec.prime_field(3))
    assert zero(rat) != zero(f3) and one(rat) != one(f3)
    assert zero(f3).field == f3 and not zero(f3)
    assert one(rat) == elem(rat, (1,)) and zero(rat) == elem(rat, ())


def test_valuation_examples():
    assert q("x^2 + x^3").valuation == 2
    assert q("x/(1+x)").valuation == 1
    assert zero(Q).valuation == math.inf


def test_valuation_of_constants():
    assert q("7").valuation == 0
    assert q("1/2").valuation == 0


# -- inverse -------------------------------------------------------------------

def test_inverse_examples():
    e = q("1 + x")
    assert e * inverse(e) == one(Q)
    assert inverse(q("2")) == q("1/2")
    with pytest.raises(NonUnitError):
        inverse(q("x"))
    with pytest.raises(NonUnitError):
        inverse(zero(Q))


def test_division_in_ring():
    assert q("x^3") / q("x") == q("x^2")
    assert q("x^2 + x^3") / q("x^2") == q("1 + x")
    with pytest.raises(NotDivisibleError):
        q("x") / q("x^2")


def test_unit_part():
    e = q("x^2 + 2*x^3")
    assert unit_part(e) == q("1 + 2*x")
    assert x_shift(unit_part(e), 2) == e


# -- grammar -------------------------------------------------------------------

def test_parse_whitespace_insensitive():
    assert parse_element(Q, " 1 +  2*x + x^3 ") == parse_element(Q, "1+2*x+x^3")


def test_parse_fraction_coefficients():
    e = parse_element(Q, "1/2 + x")
    assert e.num == (Q.of_int(1) / 2, Q.of_int(1))


def test_parse_denominator():
    e = parse_element(Q, "(1 + x)/(1 + 2*x)")
    assert e.valuation == 0
    assert e * parse_element(Q, "1 + 2*x") == parse_element(Q, "1 + x")


def test_parse_rejects_vanishing_denominator():
    with pytest.raises(ParseError):
        parse_element(Q, "1/(x)")
    with pytest.raises(ParseError):
        parse_element(Q, "1/x")


def test_parse_rejects_garbage():
    for bad in ("", "x^", "y", "1 + + x", "x**2", "x^10001", "x^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_element(Q, bad)


@pytest.mark.parametrize("label", ["Q", "Fp:101"])
def test_parse_zero_spellings(label, monkeypatch):
    # a document cell "0" is the shared zero without a parse_element call;
    # parse_element runs the grammar on every spelling of zero, "0" too,
    # and still gives the shared zero; malformed spellings fail as before
    field = FieldSpec.from_label(label)
    cells, polys = [], []
    real_element, real_poly = serialize.parse_element, localring.parse_poly
    monkeypatch.setattr(serialize, "parse_element",
                        lambda f, t: cells.append(t) or real_element(f, t))
    monkeypatch.setattr(localring, "parse_poly",
                        lambda f, t: polys.append(t) or real_poly(f, t))
    m = serialize.parse_matrix(field, [["0", " 0 "], ["x", "0"]], 2, 2, "$.m")
    assert m.entries[0] is m.entries[3] is zero(field)
    assert cells == [" 0 ", "x"] and polys == ["0", "x"]
    polys.clear()
    assert parse_element(field, "0") is zero(field) and polys == ["0"]
    for text in (" 0 ", "00", "-0", "+0", "0*x", "0x", "0/(1 + x)", "0\n"):
        assert parse_element(field, text) == zero(field)
    assert len(polys) == 10  # one each, two for the fraction
    for text, message in (
            ("0+", "malformed polynomial '0+'"),
            ("0^2", "bad term '0^2' in polynomial '0^2'"),
            ("0.0", "bad term '0.0' in polynomial '0.0'"),
            ("(0", "unexpected parentheses in polynomial '(0'"),
            ("0/(x)", "denominator vanishes at x = 0 in '0/(x)'")):
        with pytest.raises(ParseError) as err:
            parse_element(field, text)
        assert str(err.value) == message


def test_element_is_an_immutable_value():
    f3 = FieldSpec.prime_field(3)
    e = q("1 + x")
    with pytest.raises(AttributeError):
        e.num = (1,)
    for product in (lambda: 3 * e, lambda: e * 3, lambda: e + 3,
                    lambda: e * (1,)):
        with pytest.raises(TypeError):
            product()
    same = elem(Q, (1, 1))
    assert same is not e and same == e and hash(same) == hash(e)
    other = parse_element(f3, "1 + x")
    assert (other.num, other.den) == (e.num, e.den) and other != e
    assert len({e, same, other}) == 2


# -- the grammar against the parser it replaced --------------------------------

PARITY_FIELDS = (Q, FieldSpec.prime_field(3), FieldSpec.prime_field(101))
GRAMMAR_CHARS = "0123456789x^*+-/() \t\n\u00a0\u2003\x1c"
GRAMMAR_TOKENS = ("x", "x^", "x^2", "*x", "1", "2", "10", "3/4", "-", "+",
                  "/(", "(", ")", "0", " ", "\u00a0", "\u2003", "\x1c",
                  "x^0002", "x^10000", "x^10001")
PINNED = ("x^10000", "x^10001", "x^0002", "7" * 5000 + "*x",
          "x^" + "1" * 5000, "0")


def _outcome(parse, field, text):
    """An element with the type of each coefficient, or the message."""
    try:
        e = parse(field, text)
    except ParseError as exc:
        return str(exc)
    return e, [type(c) for c in e.num + e.den]


def _assert_parity(field, text):
    assert (_outcome(parse_element, field, text)
            == _outcome(parse_element_reference, field, text))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(PARITY_FIELDS),
       st.one_of(st.text(alphabet=GRAMMAR_CHARS, max_size=16),
                 st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=8)
                 .map("".join)))
def test_parser_matches_reference(field, text):
    _assert_parity(field, text)


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=lambda f: f.label)
@pytest.mark.parametrize("text", PINNED, ids=lambda t: t[:12])
def test_parser_matches_reference_on_pinned_tokens(field, text):
    _assert_parity(field, text)


def _strip_outer_parens_reference(s):
    """The former stripping loop: rescans the string once per pair."""
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1]
    return s


def _parse_outcome(text):
    try:
        return parse_element(Q, text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="()x+1/^2", max_size=14))
def test_strip_outer_parens_matches_reference(text):
    assert (localring._strip_outer_parens(text)
            == _strip_outer_parens_reference(text))
    new = _parse_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localring, "_strip_outer_parens",
                   _strip_outer_parens_reference)
        assert _parse_outcome(text) == new


def test_parse_deep_parentheses_linear():
    n = 30000
    assert parse_element(Q, "(" * n + "x" + ")" * n) == q("x")
    with pytest.raises(ParseError, match="unexpected parentheses"):
        parse_element(Q, "(" * n + "x" + ")" * (n - 1))


def test_parse_exponent_limit():
    assert parse_element(Q, "x^10000").valuation == 10000
    assert parse_element(Q, "x^0002") == parse_element(Q, "x^2")
    # int() counts leading zeros against its 4300-digit limit
    assert parse_element(Q, "x^" + "0" * 5000 + "2") == parse_element(Q, "x^2")
    assert parse_element(Q, "x^" + "0" * 5000) == one(Q)


def test_prime_field_coefficients():
    e = parse_element(F5, "3 + 4*x")
    assert e + e == parse_element(F5, "1 + 3*x")


def test_format_roundtrip_handpicked():
    for s in ("0", "1", "x", "x^2", "1 + x", "1/2 + 3*x^4", "x/(1 + x)",
              "(1 + x)/(1 + x + x^2)", "2 - x"):
        e = parse_element(Q, s)
        assert parse_element(Q, format_element(e)) == e


# -- hypothesis properties -----------------------------------------------------

coeffs = st.lists(st.integers(-4, 4), min_size=0, max_size=4)


def _elem_from(field, num_coeffs, den_tail):
    num = tuple(field.of_int(c) for c in num_coeffs)
    den = (field.one,) + tuple(field.of_int(c) for c in den_tail)
    return elem(field, num, den)


@settings(max_examples=60, deadline=None)
@given(coeffs, st.lists(st.integers(-3, 3), max_size=2),
       coeffs, st.lists(st.integers(-3, 3), max_size=2))
def test_ring_axioms_rationals(n1, d1, n2, d2):
    a = _elem_from(Q, n1, d1)
    b = _elem_from(Q, n2, d2)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == zero(Q)
    assert a * (b + one(Q)) == a * b + a


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs)
def test_valuation_multiplicative(n1, n2):
    a = _elem_from(Q, n1, [])
    b = _elem_from(Q, n2, [])
    assert (a * b).valuation == a.valuation + b.valuation


@settings(max_examples=60, deadline=None)
@given(coeffs, st.lists(st.integers(-3, 3), max_size=2))
def test_format_parse_roundtrip(n, d):
    e = _elem_from(Q, n, d)
    assert parse_element(Q, format_element(e)) == e


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=4),
       st.lists(st.integers(0, 4), max_size=4))
def test_prime_field_roundtrip(n, d):
    e = _elem_from(F5, n, d)
    assert parse_element(F5, format_element(e)) == e


@settings(max_examples=40, deadline=None)
@given(coeffs)
def test_unit_times_inverse(n):
    a = _elem_from(Q, [1] + n, [])
    assert a * inverse(a) == one(Q)


def test_canonical_denominator_constant_term():
    e = elem(Q, (Q.of_int(2),), (Q.of_int(2), Q.of_int(4)))
    assert e.den[0] == Q.one


# -- arithmetic against the reference canonicalisation ----------------------------

# Small primes make shared factors, and so nontrivial gcds, common.
FIELDS = (Q, FieldSpec.prime_field(2), FieldSpec.prime_field(3),
          FieldSpec.prime_field(101))


@st.composite
def elem_pairs(draw):
    """(a, b) canonical over one field, drawn so that equal denominators,
    denominator 1, monomial numerators, b = -a, denominators sharing a
    factor and sums that cancel part of a denominator all occur."""
    K = draw(st.sampled_from(FIELDS))

    def poly_(min_len, max_len, unit=False):
        cs = draw(st.lists(st.integers(-3, 3), min_size=min_len,
                           max_size=max_len))
        f = [K.of_int(c) for c in cs]
        if unit and f[0] == K.zero:
            f[0] = K.one
        if f and f[-1] == K.zero:
            f[-1] = K.one
        return tuple(f)

    # nonconstant units, shared by both elements
    pool = [poly_(2, 3, unit=True) for _ in range(3)]

    def product(unit):
        f = poly_(1, 2, unit=unit)
        for i in draw(st.lists(st.integers(0, 2), max_size=3)):
            f = poly.mul(K, f, pool[i])
        return f

    def element():
        kind = draw(st.sampled_from(("general", "monomial", "polynomial")))
        den = poly.one(K) if kind == "polynomial" else product(unit=True)
        if kind == "monomial":
            c = K.of_int(draw(st.integers(1, 3)))
            num = poly.shift_up(K, poly.trim(K, [c]), draw(st.integers(0, 3)))
        else:
            num = poly.shift_up(K, product(unit=False), draw(st.integers(0, 2)))
        return elem(K, num, den)

    a = element()
    relation = draw(st.sampled_from(
        ("free", "same_den", "negated", "cancelling")))
    if relation == "negated":
        b = -a
    elif relation == "same_den":
        # (n + p*d)/d is reduced whenever n/d is
        b = elem(K, poly.add(K, a.num, poly.mul(K, poly_(1, 3), a.den)), a.den)
    elif relation == "cancelling":
        # b = s - a, so a + b = s loses a's denominator
        s = element()
        b = elem(K, poly.add(K, poly.mul(K, s.num, a.den),
                             poly.neg(K, poly.mul(K, a.num, s.den))),
                 poly.mul(K, s.den, a.den))
    else:
        b = element()
    return a, b


def _reference(K, num, den):
    """num/den divided by the monic gcd, then by the constant term of the
    denominator, through the generic ``poly`` operations (``gcd``,
    ``exact_quotient``, ``scale``) rather than ``poly.lowest_terms``."""
    if not num:
        return (), poly.one(K)
    g = poly.gcd(K, num, den)
    num, den = poly.exact_quotient(K, num, g), poly.exact_quotient(K, den, g)
    c = K.inv(den[0])
    return poly.scale(K, num, c), poly.scale(K, den, c)


@settings(max_examples=400, deadline=None)
@given(elem_pairs())
def test_arithmetic_matches_reference_canonicalisation(pair):
    a, b = pair
    K = a.field
    for e in (a, b):
        assert (e.num, e.den) == _reference(K, e.num, e.den)
    cross_ab = poly.mul(K, a.num, b.den)
    cross_ba = poly.mul(K, b.num, a.den)
    den = poly.mul(K, a.den, b.den)

    def same(got, num, den):
        assert (got.num, got.den) == _reference(K, num, den)

    same(a + b, poly.add(K, cross_ab, cross_ba), den)
    same(a - b, poly.add(K, cross_ab, poly.neg(K, cross_ba)), den)
    same(a * b, poly.mul(K, a.num, b.num), den)
    if b and b.valuation <= a.valuation:
        v = b.valuation
        same(a / b, cross_ab[v:], cross_ba[v:])


KERNEL_FIELDS = (Q, FieldSpec.prime_field(3), FieldSpec.prime_field(101))


@st.composite
def planted_factors(draw):
    """A field, n and d with d(0) != 0, and g with g(0) != 0 of degree
    0 to 3; over Q the coefficients are negative and non-integer too, and
    integral ones are ints, as the package keeps them."""
    K = draw(st.sampled_from(KERNEL_FIELDS))
    if K.p:
        scalar = st.integers(0, K.p - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-30, 30),
                           st.integers(1, 12)).map(canon)
    nonzero = scalar.filter(bool)

    def factor():  # nonzero constant term and lead
        deg = draw(st.integers(0, 3))
        if not deg:
            return (draw(nonzero),)
        middle = draw(st.lists(scalar, min_size=deg - 1, max_size=deg - 1))
        return (draw(nonzero), *middle, draw(nonzero))

    n = poly.trim(K, draw(st.lists(scalar, max_size=4)))
    return K, n, factor(), factor()


@settings(max_examples=300, deadline=None)
@given(planted_factors())
def test_elem_cancels_planted_factors(case):
    K, n, d, g = case
    num, den = poly.mul(K, n, g), poly.mul(K, d, g)
    e = elem(K, num, den)
    assert (e.num, e.den) == _reference(K, num, den) == _reference(K, n, d)
    assert e.den[0] == K.one
    for c in e.num + e.den:
        assert (type(c) is int and 0 <= c < K.p) if K.p else \
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
    with pytest.raises(NonUnitError):  # den(0) = 0: no unit
        elem(K, num, poly.shift_up(K, den, 1))


# -- prime check -------------------------------------------------------------------

def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if _is_prime(n)] == \
        [n for n in range(-3, 5000) if trial(n)]


def test_is_prime_large():
    assert _is_prime(10**18 + 3)
    assert _is_prime(2**61 - 1)
    assert not _is_prime(10**18 + 1)
    # strong pseudoprime to every prime base up to 23
    assert not _is_prime(3825123056546413051)


def test_characteristic_cap():
    # the least strong pseudoprime to the bases up to 37: the cap itself
    with pytest.raises(ValueError):
        FieldSpec.prime_field(MAX_CHARACTERISTIC)
    with pytest.raises(ParseError):
        FieldSpec.from_label(f"Fp:{MAX_CHARACTERISTIC}")
    assert FieldSpec.from_label("Fp:1000000000000000003").p == 10**18 + 3
