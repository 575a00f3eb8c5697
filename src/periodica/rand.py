"""Seeded random generators for property suites: ring elements, exactly
invertible matrices (built as products of elementary operations so the
inverse is exact), conjugated complexes with known decompositions, and
valid quasi-periodic data."""

from __future__ import annotations

from random import Random
from typing import Tuple

from .classify import IndecompMultiset, assemble, label
from .complexes import ChainMap2, TwoPeriodicComplex, direct_sum
from .fields import FieldSpec
from .localring import LocalElem, elem, zero
from .matrix import RMatrix
from .minimal import TrivialType, trivial_complex
from .smith import TrackedBasis
from .strictify import QuasiPeriodicData


def random_scalar(rng: Random, field: FieldSpec, lo: int = -3, hi: int = 3):
    if field.is_rationals:
        return field.of_int(rng.randint(lo, hi))
    return rng.randrange(field.p)


def random_element(rng: Random, field: FieldSpec, max_val: int = 3,
                   terms: int = 2) -> LocalElem:
    """Random polynomial element of valuation <= max_val (possibly zero)."""
    coeffs = [field.zero] * (max_val + 1)
    for _ in range(terms):
        d = rng.randint(0, max_val)
        coeffs[d] = field.add(coeffs[d], random_scalar(rng, field))
    from . import poly
    return elem(field, poly.trim(field, coeffs))


def random_invertible(rng: Random, field: FieldSpec, n: int,
                      ops: int = None, max_val: int = 3) -> Tuple[RMatrix, RMatrix]:
    """Random invertible n x n matrix together with its exact inverse,
    as a product of elementary row operations."""
    if ops is None:
        ops = 2 * n + 2
    basis = TrackedBasis(field, n)
    for _ in range(ops if n > 0 else 0):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            lam = random_element(rng, field, max_val)
            if not lam:
                continue
            basis.add_batch([(i, j, lam)])
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            basis.swap(i, j)
        else:
            i = rng.randrange(n)
            c = field.zero
            while c == field.zero:
                c = random_scalar(rng, field)
            basis.scale(i, elem(field, (c,)))
    return basis.matrices()


def conjugate_complex(rng: Random, x: TwoPeriodicComplex,
                      max_val: int = 3):
    """Random basis change on both degrees; returns the conjugated
    complex and the isomorphism pair (to conjugated, back)."""
    field = x.field
    p0, p0i = random_invertible(rng, field, x.r0, max_val=max_val)
    p1, p1i = random_invertible(rng, field, x.r1, max_val=max_val)
    d0 = p1 @ x.d0 @ p0i
    d1 = p0 @ x.d1 @ p1i
    y = TwoPeriodicComplex(field, x.r0, x.r1, d0, d1)
    fwd = ChainMap2(x, y, p0, p1)
    bwd = ChainMap2(y, x, p0i, p1i)
    return y, fwd, bwd


def random_multiset(rng: Random, max_labels: int = 4,
                    max_j: int = 5) -> IndecompMultiset:
    k = rng.randint(0, max_labels)
    labs = [label(rng.randint(1, max_j), rng.random() < 0.5) for _ in range(k)]
    return IndecompMultiset.from_labels(labs)


def random_finite_length_instance(
        rng: Random, field: FieldSpec, max_labels: int = 4, max_j: int = 5,
        max_trivials: int = 2, max_val: int = 3):
    """Conjugated block sum with a known expected decomposition.

    Returns (complex, multiset, trivial counts (t1, t2))."""
    ms = random_multiset(rng, max_labels, max_j)
    parts = [assemble(ms, field)]
    t1 = rng.randint(0, max_trivials)
    t2 = rng.randint(0, max_trivials - t1) if t1 < max_trivials else 0
    if t1:
        parts.append(trivial_complex(TrivialType.TYPE1, t1, field))
    if t2:
        parts.append(trivial_complex(TrivialType.TYPE2, t2, field))
    x = direct_sum(*parts) if len(parts) > 1 else parts[0]
    y, _, _ = conjugate_complex(rng, x, max_val=max_val)
    return y, ms, (t1, t2)


def random_quasi_periodic(rng: Random, field: FieldSpec, max_labels: int = 3,
                          max_j: int = 4) -> Tuple[QuasiPeriodicData, TwoPeriodicComplex]:
    """Valid quasi-periodic data with a known strictification.

    Start from a minimal 2-periodic complex (d0, d1), pick invertible
    phi's, and set alpha0 = d0 phi0, alpha1 = d1; then
    alpha0 phi0^-1 = d0 and both complex conditions hold."""
    ms = random_multiset(rng, max_labels, max_j)
    if ms.size() == 0:
        ms = IndecompMultiset.from_labels([label(1, False)])
    base = assemble(ms, field)
    x, _, _ = conjugate_complex(rng, base, max_val=2)
    phi0, _ = random_invertible(rng, field, x.r0, max_val=2)
    phi1, _ = random_invertible(rng, field, x.r1, max_val=2)
    q = QuasiPeriodicData(field, x.r0, x.r1,
                          alpha0=x.d0 @ phi0, alpha1=x.d1,
                          phi0=phi0, phi1=phi1)
    return q, x


def random_column(rng: Random, field: FieldSpec, n: int,
                  max_val: int = 3) -> RMatrix:
    return RMatrix(field, n, 1,
                   tuple(random_element(rng, field, max_val) for _ in range(n)))


def random_matrix(rng: Random, field: FieldSpec, rows: int, cols: int,
                  max_val: int = 3, zero_bias: float = 0.3) -> RMatrix:
    def entry():
        if rng.random() < zero_bias:
            return zero(field)
        return random_element(rng, field, max_val)
    return RMatrix(field, rows, cols,
                   tuple(entry() for _ in range(rows * cols)))
