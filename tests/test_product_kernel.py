"""The product kernel of ``matrix`` against a term-by-term reference.

``@`` and ``product_first_nonzero`` share one row kernel that reduces
each cell once: its polynomial terms through ``poly.sum_of_products``,
the terms with a denominator in ``LocalElem`` arithmetic.  Canonical
elements are unique, so every cell must equal ``oracles.matmul_reference``,
which adds the terms one at a time from zero, and carry Q coefficients of
the same types (an ``int`` when integral).  A sympy product over QQ(x),
built from the coefficient tuples alone, checks one Q product with no
shared code.  The two counts that recognise an identity operand
(``matrix._is_identity``) are held to comparing with
``RMatrix.identity``.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import Rational, cancel, symbols

from oracles import matmul_reference
from thelpers import first_nonzero

from periodica import FieldSpec, RMatrix
from periodica.fields import q_canon
from periodica.localring import LocalElem, elem, one, zero
from periodica.matrix import _is_identity, product_first_nonzero

FIELDS = ["Q", "Fp:3", "Fp:101"]


def scalar(rng, field):
    if field.p:
        return rng.randrange(field.p)
    return q_canon(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 7))))


def random_elem(rng, field, zero_bias):
    """Zero with probability ``zero_bias``; else a polynomial of degree
    <= 3, a third of the time over a denominator with den(0) != 0."""
    if rng.random() < zero_bias:
        return zero(field)
    num = [scalar(rng, field) for _ in range(rng.randint(1, 4))]
    if rng.random() < 2 / 3:
        return elem(field, num)
    den = [field.one] + [scalar(rng, field) for _ in range(rng.randint(1, 2))]
    return elem(field, num, den)


def random_matrix(rng, field, rows, cols, zero_bias):
    return RMatrix(field, rows, cols, tuple(
        random_elem(rng, field, zero_bias) for _ in range(rows * cols)))


def with_cancellation(rng, a, b, zero_bias):
    """(a', b') = ([a | a], [b + c ; -c]) for a random c, so that a' b' =
    a b and every cell has terms that cancel."""
    c = random_matrix(rng, a.field, b.rows, b.cols, zero_bias)
    a2 = RMatrix.build(a.field, a.rows, 2 * a.cols,
                       lambda i, t: a.at(i, t % a.cols))
    b2 = RMatrix.build(b.field, 2 * b.rows, b.cols, lambda t, j: (
        b.at(t, j) + c.at(t, j) if t < b.rows else -c.at(t - b.rows, j)))
    return a2, b2


def assert_same_cells(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.entries == want.entries
    for e, f in zip(got.entries, want.entries):
        for g, h in ((e.num, f.num), (e.den, f.den)):
            assert [type(c) for c in g] == [type(c) for c in h], (e, f)


@settings(max_examples=250, deadline=None)
@given(label=st.sampled_from(FIELDS), seed=st.integers(0, 2**32 - 1),
       shape=st.one_of(
           st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
           st.integers(1, 6).map(lambda n: (n, 1, n))),
       zero_bias=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
       kind=st.sampled_from(["random", "cancel", "left identity",
                             "right identity", "built identity",
                             "unit diagonal"]))
@example(label="Q", seed=0, shape=(0, 3, 2), zero_bias=0.4, kind="random")
@example(label="Q", seed=1, shape=(2, 0, 3), zero_bias=0.4, kind="random")
@example(label="Q", seed=2, shape=(3, 3, 3), zero_bias=0.0, kind="cancel")
@example(label="Fp:3", seed=3, shape=(5, 1, 5), zero_bias=0.0, kind="random")
@example(label="Q", seed=4, shape=(2, 3, 3), zero_bias=0.4,
         kind="unit diagonal")
def test_product_matches_the_term_by_term_sum(label, seed, shape, zero_bias,
                                               kind):
    field = FieldSpec.from_label(label)
    rng = random.Random(seed)
    n, k, m = shape
    a = random_matrix(rng, field, n, k, zero_bias)
    b = random_matrix(rng, field, k, m, zero_bias)
    if kind == "cancel":
        product = matmul_reference(a, b)
        a, b = with_cancellation(rng, a, b, zero_bias)
        assert matmul_reference(a, b) == product
    elif kind == "left identity":
        a = RMatrix.identity(field, k)
    elif kind == "right identity":
        b = RMatrix.identity(field, k)
    elif kind == "built identity":  # ones that are equal copies, not shared
        a = RMatrix.from_cells(field, k, k, (
            ((i, i), elem(field, [field.one])) for i in range(k)))
    elif kind == "unit diagonal":  # an identity only if nothing else is set
        b = RMatrix.build(field, k, m, lambda i, j: (
            elem(field, [field.one]) if i == j else b.at(i, j)))
    want = matmul_reference(a, b)
    assert_same_cells(a @ b, want)
    assert product_first_nonzero(a, b) == first_nonzero(want)


def _identity_candidate(rng, field, n, kind):
    """An n x n matrix of ``kind``: ones and zeros that are equal copies
    of the shared ones ("copies"), the identity with a zero on the
    diagonal or a unit off it, or random entries."""
    o, z = one(field), zero(field)
    if kind == "random":
        return random_matrix(rng, field, n, n, rng.choice((0.0, 0.5, 0.9)))
    if kind == "copies":  # each cell the shared element or an equal copy
        def cell(i, j):
            e = o if i == j else z
            return e if rng.random() < 0.5 else LocalElem(field, e.num, e.den)
        return RMatrix.build(field, n, n, cell)
    ents = list(RMatrix.identity(field, n).entries)
    if kind == "zero on the diagonal" and n:
        ents[rng.randrange(n) * (n + 1)] = z
    elif kind == "off-diagonal unit" and n > 1:
        i, j = rng.sample(range(n), 2)
        ents[i * n + j] = elem(field, [rng.choice((1, 2))])
    return RMatrix(field, n, n, tuple(ents))


@settings(max_examples=300, deadline=None)
@given(label=st.sampled_from(FIELDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(0, 6),
       kind=st.sampled_from(["identity", "copies", "zero on the diagonal",
                             "off-diagonal unit", "random"]))
@example(label="Q", seed=0, n=0, kind="identity")
@example(label="Fp:3", seed=1, n=4, kind="copies")
@example(label="Fp:101", seed=2, n=3, kind="zero on the diagonal")
@example(label="Q", seed=3, n=2, kind="off-diagonal unit")
def test_identity_is_recognised_by_its_counts(label, seed, n, kind):
    # two counts of the shared one and zero, equal copies counted too,
    # decide exactly what comparing with the identity matrix decides, and
    # @ returns the other operand itself exactly when they say so
    field = FieldSpec.from_label(label)
    rng = random.Random(seed)
    m = _identity_candidate(rng, field, n, kind)
    is_identity = _is_identity(m.entries, n, one(field), zero(field))
    assert is_identity == (m == RMatrix.identity(field, n))
    if kind == "copies":
        assert is_identity
    if n:
        x = elem(field, [0, field.one])
        b = RMatrix.build(field, n, n + 1, lambda i, j: (
            x if (i, j) == (0, 0) else random_elem(rng, field, 0.5)))
        c = RMatrix.build(field, n + 1, n, lambda i, j: (
            x if (i, j) == (0, 0) else random_elem(rng, field, 0.5)))
        assert ((m @ b) is b) == ((c @ m) is c) == is_identity
        assert_same_cells(m @ b, matmul_reference(m, b))
        assert_same_cells(c @ m, matmul_reference(c, m))


def test_cancelled_cells_are_the_shared_zero():
    field = FieldSpec(0)
    e = elem(field, [1, Fraction(1, 2)])
    f = elem(field, [3, 0, 1], [1, 1])
    a = RMatrix(field, 1, 4, (e, e, f, f))
    b = RMatrix(field, 4, 1, (e, -e, f, -f))
    assert (a @ b).entries == (zero(field),)
    assert product_first_nonzero(a, b) is None


def test_product_over_q_matches_sympy_over_qq_of_x():
    # coefficient tuples, ascending: numerator, denominator (den(0) = 1)
    a_cells = [[((1, Fraction(1, 2)), (1,)), ((0, 3), (1, -2)),
                ((Fraction(2, 3),), (1,))],
               [((), (1,)), ((-1, 0, 5), (1,)), ((4, 1), (1, 0, Fraction(1, 3)))]]
    b_cells = [[((2,), (1, 1)), ((0, 0, 1), (1,))],
               [((1, -1), (1,)), ((Fraction(-1, 4),), (1,))],
               [((7, 0, 1), (1,)), ((0, 1), (1, 5))]]
    x = symbols("x")

    def as_expr(num, den):
        def value(coeffs):
            return sum(Rational(Fraction(c).numerator, Fraction(c).denominator)
                       * x**i for i, c in enumerate(coeffs))
        return value(num) / value(den)

    def pair(cells):
        field = FieldSpec(0)
        rows, cols = len(cells), len(cells[0])
        ours = RMatrix(field, rows, cols, tuple(
            elem(field, [q_canon(Fraction(c)) for c in num],
                 [q_canon(Fraction(c)) for c in den])
            for row in cells for num, den in row))
        theirs = SympyMatrix(rows, cols,
                             lambda i, j: as_expr(*cells[i][j]))
        return ours, theirs

    (a, sa), (b, sb) = pair(a_cells), pair(b_cells)
    got = a @ b
    want = sa * sb
    for i in range(got.rows):
        for j in range(got.cols):
            e = got.at(i, j)
            assert cancel(as_expr(e.num, e.den) - want[i, j]) == 0, (i, j)
