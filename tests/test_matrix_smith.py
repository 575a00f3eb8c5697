"""Smith forms, solving over the ring, and subquotient presentations,
cross-checked against the determinantal-divisor oracle."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thelpers import col, first_nonzero, mat, random_unit

from periodica import (
    CompositeNotZeroError,
    FieldSpec,
    NotInvertibleError,
    RMatrix,
    homology_invariants,
    invert,
    one,
    parse_element,
    smith_normal_form,
    solve_over_ring,
    x_power,
    zero,
)
from periodica.rand import random_element, random_matrix

Q = FieldSpec.rationals()


def test_snf_identity():
    a = RMatrix.identity(Q, 2)
    s = smith_normal_form(a)
    assert s.exponents == (0, 0)
    assert s.d == a


def test_snf_spec_example_via_oracle():
    # gcd of entries x, determinant valuation 3 -> invariants (1, 2)
    a = mat(Q, 2, 2, [["x", "x^2"], ["x^2", "x^3 + x^2"]])
    assert oracles.invariant_factors_via_minors(a) == [1, 2]
    s = smith_normal_form(a)
    assert s.exponents == (1, 2)
    assert (s.u @ a @ s.v - s.d).is_zero()


def test_snf_zero_matrix():
    a = RMatrix.zeros(Q, 2, 3)
    s = smith_normal_form(a)
    assert s.exponents == ()
    assert s.d.is_zero()


def test_snf_certificates_random(rng):
    for _ in range(30):
        a = random_matrix(rng, Q, rng.randint(0, 4), rng.randint(0, 4))
        s = smith_normal_form(a)
        assert (s.u @ a @ s.v - s.d).is_zero()
        assert (s.u @ s.u_inv - RMatrix.identity(Q, a.rows)).is_zero()
        assert (s.u_inv @ s.u - RMatrix.identity(Q, a.rows)).is_zero()
        assert (s.v @ s.v_inv - RMatrix.identity(Q, a.cols)).is_zero()
        assert list(s.exponents) == sorted(s.exponents)
        # diagonal entries are exact monomials
        for t, e in enumerate(s.exponents):
            assert s.d.at(t, t) == x_power(Q, e)
        # transforms have unit determinant valuation
        if a.rows <= 4 and a.rows > 0:
            assert oracles.det(s.u).valuation == 0
        if a.cols <= 4 and a.cols > 0:
            assert oracles.det(s.v).valuation == 0


def test_snf_matches_minor_oracle(rng):
    for _ in range(25):
        a = random_matrix(rng, Q, rng.randint(1, 4), rng.randint(1, 4),
                          max_val=2)
        expect = oracles.invariant_factors_via_minors(a)
        assert list(smith_normal_form(a).exponents) == expect


def test_snf_minor_oracle_prime_field(rng):
    f = FieldSpec.prime_field(101)
    for _ in range(15):
        a = random_matrix(rng, f, rng.randint(1, 3), rng.randint(1, 3),
                          max_val=2)
        assert list(smith_normal_form(a).exponents) == \
            oracles.invariant_factors_via_minors(a)


# -- solving ------------------------------------------------------------------

def test_solve_divisible():
    a = mat(Q, 1, 1, [["x"]])
    b = col(Q, ["x^3"])
    sol = solve_over_ring(a, b)
    assert sol is not None and (a @ sol - b).is_zero()
    assert sol.at(0, 0) == parse_element(Q, "x^2")


def test_solve_valuation_obstruction():
    a = mat(Q, 1, 1, [["x^2"]])
    assert solve_over_ring(a, col(Q, ["x"])) is None


def test_solve_spec_rectangular_example():
    a = mat(Q, 2, 2, [["1", "x"], ["0", "0"]])
    b = col(Q, ["x^2", "0"])
    sol = solve_over_ring(a, b)
    assert sol is not None and (a @ sol - b).is_zero()


def test_solve_inconsistent_zero_row():
    a = mat(Q, 2, 1, [["x"], ["0"]])
    assert solve_over_ring(a, col(Q, ["x", "1"])) is None


def test_solve_random_verifies(rng):
    solved = 0
    for _ in range(40):
        a = random_matrix(rng, Q, rng.randint(1, 3), rng.randint(1, 3))
        b = random_matrix(rng, Q, a.rows, 1)
        sol = solve_over_ring(a, b)
        if sol is not None:
            solved += 1
            assert (a @ sol - b).is_zero()
    assert solved > 0


def test_solve_constructed_always_solvable(rng):
    # b = a sigma for random sigma must be solvable, and any solution exact
    for _ in range(25):
        a = random_matrix(rng, Q, rng.randint(1, 3), rng.randint(1, 3))
        sigma = random_matrix(rng, Q, a.cols, 1)
        b = a @ sigma
        sol = solve_over_ring(a, b)
        assert sol is not None
        assert (a @ sol - b).is_zero()


# -- inversion ------------------------------------------------------------------

def test_invert_and_failure():
    a = mat(Q, 2, 2, [["1", "x"], ["x", "1 + x"]])
    ainv = invert(a)
    assert (a @ ainv - RMatrix.identity(Q, 2)).is_zero()
    assert (ainv @ a - RMatrix.identity(Q, 2)).is_zero()
    with pytest.raises(NotInvertibleError):
        invert(mat(Q, 2, 2, [["x", "0"], ["0", "1"]]))
    assert not oracles.is_invertible(mat(Q, 1, 2, [["1", "0"]]))


# -- subquotients ---------------------------------------------------------------

def test_homology_invariants_spec_examples():
    one_by_one = mat(Q, 1, 1, [["x^3"]])
    z = RMatrix.zeros(Q, 1, 1)
    # kernel of x^3 on a domain is 0
    h, gens = homology_invariants(one_by_one, z)
    assert h.factors == () and h.free_rank == 0 and gens == ()
    # cokernel of x^3 is R/x^3
    h, gens = homology_invariants(z, one_by_one)
    assert h.factors == (3,) and h.free_rank == 0
    assert len(gens) == 1
    # nothing at all: free of rank 1
    h, gens = homology_invariants(z, z)
    assert h.factors == () and h.free_rank == 1 and len(gens) == 1


def test_homology_requires_zero_composite():
    a = mat(Q, 1, 1, [["1"]])
    with pytest.raises(CompositeNotZeroError):
        homology_invariants(a, a)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime_field(101)])
def test_homology_composite_check_matches_the_product(field, rng):
    # the check reads rows of v^-1 b; it must reject exactly the pairs
    # with a b != 0 and name the first nonzero entry of a b
    for _ in range(60):
        m, n, k = (rng.randint(1, 3) for _ in range(3))
        a = random_matrix(rng, field, m, n, max_val=2, zero_bias=0.5)
        b = random_matrix(rng, field, n, k, max_val=2, zero_bias=0.5)
        if rng.random() < 0.5:  # columns in the kernel of a
            s = smith_normal_form(a)
            b = s.v.take_cols(range(s.rank, n)) @ random_matrix(
                rng, field, n - s.rank, k, max_val=2)
        pos = first_nonzero(a @ b)
        if pos is None:
            homology_invariants(a, b)
            continue
        with pytest.raises(CompositeNotZeroError) as exc:
            homology_invariants(a, b)
        assert str(exc.value) == "composite is nonzero at (%d, %d)" % pos


def test_homology_generators_are_kernel_lifts(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_matrix(rng, Q, rng.randint(0, 3), n)
        # build b inside ker a: columns = kernel basis combinations scaled
        s = smith_normal_form(a)
        k = s.v.take_cols(range(s.rank, n))
        if k.cols == 0:
            continue
        b = k @ random_matrix(rng, Q, k.cols, rng.randint(1, 2), max_val=2)
        h, gens = homology_invariants(a, b)
        assert len(gens) == len(h.factors) + h.free_rank
        for g in gens:
            assert (a @ g).is_zero()


def test_homology_basis_independence(rng):
    from periodica.rand import random_invertible
    for _ in range(10):
        a = mat(Q, 2, 2, [["0", "0"], ["0", "0"]])
        b = mat(Q, 2, 2, [["x^2", "0"], ["0", "x^3"]])
        p, pinv = random_invertible(rng, Q, 2)
        q_, qinv = random_invertible(rng, Q, 2)
        h1, _ = homology_invariants(a, b)
        h2, _ = homology_invariants(a @ pinv, p @ b @ q_)
        assert h1.factors == h2.factors
        assert h1.free_rank == h2.free_rank


def test_rank():
    assert smith_normal_form(mat(Q, 2, 2, [["x", "0"], ["0", "0"]])).rank == 1
    assert smith_normal_form(RMatrix.zeros(Q, 3, 2)).rank == 0


# -- hypothesis: SNF shape on monomial matrices ---------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 3), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_snf_monomial_matrices(exps):
    # -1 encodes a zero entry
    from periodica import zero as elem_zero
    ents = tuple(
        elem_zero(Q) if e < 0 else x_power(Q, e) for row in exps for e in row)
    a = RMatrix(Q, 2, 2, ents)
    s = smith_normal_form(a)
    assert (s.u @ a @ s.v - s.d).is_zero()
    assert list(s.exponents) == oracles.invariant_factors_via_minors(a)


# -- hypothesis: products against a triple-loop reference -----------------------

# operand kinds: the last four are square; "copies" is the identity from
# distinct parsed elements, "unit_diagonal" has nonzero entries off the
# diagonal, "x_on_diagonal" has x in the last diagonal entry
MATMUL_KINDS = ("random", "zero", "identity", "copies", "unit_diagonal",
                "x_on_diagonal")


def _nonzero(rng, field):
    return x_power(field, rng.randint(0, 2)) / random_unit(rng, field)


def _operand(rng, field, kind, rows, cols):
    if kind == "zero":
        return RMatrix.zeros(field, rows, cols)
    if kind == "random":
        # entries over a unit, so most carry a denominator
        return RMatrix(field, rows, cols, tuple(
            zero(field) if rng.random() < 0.3
            else random_element(rng, field, 2) / random_unit(rng, field)
            for _ in range(rows * cols)))
    if kind == "identity":
        return RMatrix.identity(field, rows)
    n = rows
    ents = [parse_element(field, "1" if i == j else "0")
            for i in range(n) for j in range(n)]
    if kind == "unit_diagonal":
        ents = [e if k % (n + 1) == 0 else _nonzero(rng, field)
                for k, e in enumerate(ents)]
    elif kind == "x_on_diagonal" and n:
        ents[-1] = x_power(field, 1)
    return RMatrix(field, n, n, tuple(ents))


def _triple_loop(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = zero(a.field)
            for t in range(a.cols):
                s = s + a.at(i, t) * b.at(t, j)
            out.append(s)
    return RMatrix(a.field, a.rows, b.cols, tuple(out))


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=60, deadline=None)
@given(kinds=st.tuples(*[st.sampled_from(MATMUL_KINDS)] * 2),
       dims=st.tuples(*[st.integers(0, 3)] * 3),
       seed=st.integers(0, 2**32 - 1))
@example(kinds=("random", "random"), dims=(0, 2, 3), seed=0)
@example(kinds=("zero", "identity"), dims=(0, 0, 0), seed=0)
@example(kinds=("random", "zero"), dims=(3, 0, 2), seed=0)
@example(kinds=("copies", "random"), dims=(2, 2, 3), seed=1)
@example(kinds=("random", "copies"), dims=(3, 2, 2), seed=1)
@example(kinds=("unit_diagonal", "random"), dims=(2, 2, 2), seed=2)
@example(kinds=("random", "unit_diagonal"), dims=(2, 3, 3), seed=3)
@example(kinds=("x_on_diagonal", "random"), dims=(3, 3, 2), seed=4)
@example(kinds=("random", "x_on_diagonal"), dims=(2, 2, 2), seed=5)
def test_matmul_matches_triple_loop(label_, kinds, dims, seed):
    # products with a zero or identity operand skip the arithmetic; every
    # product must still equal the plain triple loop
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    n, k, m = dims
    if kinds[0] not in ("random", "zero"):
        k = n
    if kinds[1] not in ("random", "zero"):
        m = k
    a = _operand(rng, field, kinds[0], n, k)
    b = _operand(rng, field, kinds[1], k, m)
    for c, kind in zip((a, b), kinds):
        if kind == "copies":
            assert all(e is not one(field) for e in c.entries)
    assert a @ b == _triple_loop(a, b)


def test_products_with_a_zero_or_identity_operand_do_no_arithmetic(
        monkeypatch):
    from periodica.localring import LocalElem

    cases = []
    for label_ in ("Q", "Fp:3", "Fp:101"):
        field = FieldSpec.from_label(label_)
        rng = Random(0)
        a = _operand(rng, field, "unit_diagonal", 3, 3)
        cases += [(a, _operand(rng, field, kind, 3, 3), kind)
                  for kind in ("zero", "identity", "copies")]
    calls = []
    real = LocalElem.__mul__

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(LocalElem, "__mul__", counting)
    for a, c, kind in cases:
        if kind == "zero":
            assert a @ c == c @ a == c
        else:
            # the other operand itself: matrices are immutable
            assert a @ c is a and c @ a is a
    assert calls == []


@pytest.mark.parametrize("label_", ["Q", "Fp:101"])
@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_from_cells_places_each_cell(label_, dims, seed):
    # the one writer of matrices that are zero but at a few cells, against
    # a dense build that looks each cell up
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    rows, cols = dims
    cells = {(i, j): random_element(rng, field)
             for i in range(rows) for j in range(cols) if rng.random() < 0.4}
    m = RMatrix.from_cells(field, rows, cols, list(cells.items()))
    assert m == RMatrix.build(field, rows, cols,
                              lambda i, j: cells.get((i, j), zero(field)))
