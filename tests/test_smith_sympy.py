"""Differential Smith oracle: sympy's invariant factors over k[x].

Over the local ring R = k[x]_(x) the Smith exponents of a polynomial
matrix are the x-adic valuations of its nonzero invariant factors over the
PID k[x].  ``sympy.matrices.normalforms.invariant_factors`` computes those
over QQ[x] and GF(p)[x] with its own arithmetic, so it shares no code with
``periodica``'s elimination or polynomial kernels.  sympy is a test
dependency: without it this module fails to import rather than skipping.
"""

import random
from fractions import Fraction

import pytest
from sympy import GF, QQ, Poly, Rational, symbols
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import invariant_factors

from periodica import FieldSpec, RMatrix, elem, smith_normal_form

X = symbols("x")


def random_poly(rng, field, max_deg):
    """Coefficients of degree <= max_deg, often divisible by a power of x."""
    if rng.random() < 0.2:
        return ()
    v = rng.choice((0, 0, 1, 1, 2, 3))
    v = min(v, max_deg)
    coeffs = [field.zero] * v
    for _ in range(rng.randint(v, max_deg) - v + 1):
        if field.p:
            coeffs.append(rng.randrange(field.p))
        else:
            coeffs.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return tuple(coeffs)


def random_grid(rng, field, rows, cols):
    """Entries of degree <= 3; a third of the grids are products A B
    through a thinner middle, so their rank drops."""
    if rng.random() < 1 / 3 and rows and cols:
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        a = [[elem(field, random_poly(rng, field, 1)) for _ in range(k)]
             for _ in range(rows)]
        b = [[elem(field, random_poly(rng, field, 2)) for _ in range(cols)]
             for _ in range(k)]
        zero = elem(field, ())
        return [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
                 for j in range(cols)] for i in range(rows)]
    return [[elem(field, random_poly(rng, field, 3)) for _ in range(cols)]
            for _ in range(rows)]


def to_sympy(field, grid, rows, cols):
    def expr(e):
        # denominators are 1: every entry is a polynomial
        return sum((Rational(c.numerator, c.denominator) if not field.p
                    else int(c)) * X**i for i, c in enumerate(e.num))
    return SympyMatrix(rows, cols, lambda i, j: expr(grid[i][j]))


def sympy_exponents(field, m):
    domain = QQ[X] if not field.p else GF(field.p)[X]
    factors = invariant_factors(m, domain=domain)
    return tuple(min(mon[0] for mon in Poly(f, X).monoms())
                 for f in factors if f != 0)


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
def test_smith_exponents_match_sympy_invariant_factors(label):
    field = FieldSpec.from_label(label)
    rng = random.Random(f"smith-sympy-{label}")
    positive = deficient = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        grid = random_grid(rng, field, rows, cols)
        a = RMatrix(field, rows, cols, tuple(e for row in grid for e in row))
        want = sympy_exponents(field, to_sympy(field, grid, rows, cols))
        got = smith_normal_form(a).exponents
        assert got == want, (label, grid)
        positive += any(got)
        deficient += len(got) < min(rows, cols)
    # the oracle must see nontrivial valuations and rank drops
    assert positive >= 15 and deficient >= 10, (positive, deficient)
