"""Seeded generator of benchmark inputs, independent of ``periodica``.

A complex is built as a block sum of K(j) (ranks (1, 1), d0 = 0,
d1 = x^j), K(j)[1] (d0 = -x^j, d1 = 0) and the two contractible
rank-(1, 1) types (type 1: d1 = 1, type 2: d0 = 1), then conjugated by
a product of elementary basis changes on F0 and F1.  The expected
decomposition is known from the construction, so it never comes from
the program under test.

Entries are polynomials with coefficients in Q (``Fraction``) or F_p
(ints in [0, p)), stored as ascending coefficient lists.  Elementary
operations use polynomial multipliers and nonzero scalars, whose
inverses are again polynomial, so every generated entry is a
polynomial and is written in the ring-element text grammar
``c0 + c1*x + c2*x^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random


@dataclass(frozen=True)
class Field:
    """Q when p == 0, else F_p."""

    p: int

    @property
    def label(self) -> str:
        return "Q" if self.p == 0 else f"Fp:{self.p}"

    def norm(self, c):
        return Fraction(c) if self.p == 0 else c % self.p

    def inv(self, c):
        return 1 / Fraction(c) if self.p == 0 else pow(c, -1, self.p)


QQ = Field(0)
F101 = Field(101)
# elementary row additions use multipliers of degree <= MAX_DEG
MAX_DEG = 1


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def padd(k: Field, f, g):
    out = [k.norm(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = k.norm(out[i] + c)
    return _trim(out)


def pmul(k: Field, f, g):
    if not f or not g:
        return []
    out = [k.norm(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = k.norm(out[i + j] + a * b)
    return _trim(out)


def monomial(k: Field, c, deg: int):
    c = k.norm(c)
    return [k.norm(0)] * deg + [c] if c else []


def format_poly(k: Field, f) -> str:
    """Ring-element text for a polynomial; the program's parser reads it."""
    if not f:
        return "0"
    terms = []
    for d, c in enumerate(f):
        if c == 0:
            continue
        neg = k.p == 0 and c < 0
        mag = -c if neg else c
        if d == 0:
            body = str(mag)
        else:
            xs = "x" if d == 1 else f"x^{d}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        terms.append(("-" if neg else "+") + body)
    text = " ".join(terms)
    return text[1:] if text.startswith("+") else text


@dataclass(frozen=True)
class Instance:
    """A conjugated block sum and what it was built from.

    ``labels`` are (j, shifted) pairs; ``trivials`` is (type 1, type 2).
    ``d0`` is r1 x r0 and ``d1`` is r0 x r1, as polynomial grids.
    """

    field: Field
    labels: tuple
    trivials: tuple
    d0: list
    d1: list

    @property
    def rank(self) -> int:
        return len(self.d1)

    def doc(self) -> dict:
        """The complex document the program's ``serialize`` reads."""
        n = self.rank
        return {
            "field": self.field.label, "r0": n, "r1": n,
            "d0": [[format_poly(self.field, e) for e in row] for row in self.d0],
            "d1": [[format_poly(self.field, e) for e in row] for row in self.d1],
        }


def block_sum(k: Field, labels, trivials):
    """(d0, d1) of the block sum: labels in the given order, then the
    type-1 and type-2 trivial summands."""
    blocks = []
    for j, shifted in labels:
        blocks.append((monomial(k, -1, j), []) if shifted
                      else ([], monomial(k, 1, j)))
    blocks += [([], [k.norm(1)])] * trivials[0]
    blocks += [([k.norm(1)], [])] * trivials[1]
    n = len(blocks)
    d0 = [[[] for _ in range(n)] for _ in range(n)]
    d1 = [[[] for _ in range(n)] for _ in range(n)]
    for t, (e0, e1) in enumerate(blocks):
        d0[t][t] = list(e0)
        d1[t][t] = list(e1)
    return d0, d1


def _random_scalar(shape: Random, values: Random, k: Field):
    """A nonzero scalar: over Q, +-1, +-2 or +-3 with the magnitude drawn
    from ``shape`` and the sign from ``values``; over F_p, uniform from
    ``values``."""
    if k.p == 0:
        return Fraction(shape.choice((1, 2, 3)) * values.choice((1, -1)))
    return values.randrange(1, k.p)


def conjugate(shape: Random, values: Random, k: Field, d0, d1, ops: int):
    """Apply ``ops`` random elementary basis changes in place.

    ``shape`` draws which operation acts where and the degrees of its
    multiplier; ``values`` draws the scalars.  A change G on F0 maps
    (d0, d1) to (d0 G^-1, G d1); on F1 to (G d0, d1 G^-1).  Row addition
    row_a += lam row_b has the inverse column operation col_b -= lam col_a.
    """
    n = len(d1)
    for _ in range(ops):
        # degree 0 acts on rows of d1 / columns of d0; degree 1 the reverse
        rows, cols = (d1, d0) if shape.random() < 0.5 else (d0, d1)
        kind = shape.randrange(4) if n >= 2 else 3
        if kind <= 1:
            a, b = shape.sample(range(n), 2)
            lam = []
            for deg in sorted(shape.sample(range(MAX_DEG + 1), min(2, MAX_DEG + 1))):
                lam = padd(k, lam, monomial(k, _random_scalar(shape, values, k), deg))
            nlam = [k.norm(-c) for c in lam]
            rows[a] = [padd(k, x, pmul(k, lam, y)) for x, y in zip(rows[a], rows[b])]
            for row in cols:
                row[b] = padd(k, row[b], pmul(k, nlam, row[a]))
        elif kind == 2:
            a, b = shape.sample(range(n), 2)
            rows[a], rows[b] = rows[b], rows[a]
            for row in cols:
                row[a], row[b] = row[b], row[a]
        else:
            a = shape.randrange(n)
            c = _random_scalar(shape, values, k)
            ci = k.inv(c)
            rows[a] = [[k.norm(c * t) for t in x] for x in rows[a]]
            for row in cols:
                row[a] = [k.norm(ci * t) for t in row[a]]


def instance(shape: Random, values: Random, k: Field, labels,
             trivials=(0, 0), ops: int = None) -> Instance:
    """Conjugated block sum with the given labels and trivial counts; the
    block order and the operations come from ``shape``, the scalars
    from ``values``."""
    order = list(labels)
    shape.shuffle(order)
    d0, d1 = block_sum(k, order, trivials)
    n = len(d1)
    conjugate(shape, values, k, d0, d1, 2 * n + 2 if ops is None else ops)
    return Instance(k, tuple(sorted(labels)), tuple(trivials), d0, d1)
