"""Answer checks that share no code with ``periodica``.

Expected answers come from how the generator built each input and from
the paper's results, never from a stored copy of an earlier output:

* Hom(K(i)[e], K(j)[f]) = R/x^min(i, j), so the Hom factors between two
  labelled block sums are the multiset {min(i, j)} over label pairs and
  the free rank is 0 (trivial summands are contractible);
* x^m id_X is null-homotopic exactly when m >= the largest j in X;
* a decomposition returns the generator's labels, H0 has the factors
  x^j of the unshifted labels and H1 those of the shifted ones;
* the AR-quiver has, in each shift class, the arrows K(i) <-> K(i+1),
  each of multiplicity 1, and the AR-triangle ending at K(i) has middle
  term K(i-1) + K(i+1).

Matrix identities (a homotopy witness, decomposition certificates) are
checked by evaluating every entry at a random point of a large field and
comparing products against a random vector (Freivalds).  An identity
that holds exactly holds at every point; a false one survives with
probability below degree / field size.  Over Q the point lies in
GF(2^61 - 1); over F_p (p = 1 mod 4) in GF(p^4) = F_p[y]/(y^4 - g), g a
primitive root, which makes y^4 - g irreducible.  Ring elements in JSON
output are read with a parser written here, not the program's.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from random import Random


class CheckFailed(Exception):
    """An output disagrees with the independently expected answer."""


# -- evaluation fields ------------------------------------------------------


class PrimeEval:
    """GF(P), P = 2^61 - 1, receiving rational coefficients."""

    P = (1 << 61) - 1
    zero = 0
    one = 1

    def coeff(self, c):
        c = Fraction(c)
        return c.numerator % self.P * pow(c.denominator, -1, self.P) % self.P

    def add(self, a, b):
        return (a + b) % self.P

    def mul(self, a, b):
        return a * b % self.P

    def neg(self, a):
        return -a % self.P

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return pow(a, -1, self.P)

    def point(self, rng: Random):
        return rng.randrange(2, self.P)


class ExtEval:
    """GF(p^4) = F_p[y]/(y^4 - g) for a prime p = 1 mod 4."""

    def __init__(self, p: int):
        if p % 4 != 1:
            raise ValueError("GF(p^4) by y^4 - g needs p = 1 mod 4")
        self.p = p
        self.g = next(g for g in range(2, p) if _is_primitive_root(g, p))
        self.zero = (0, 0, 0, 0)
        self.one = (1, 0, 0, 0)

    def coeff(self, c):
        return (int(c) % self.p, 0, 0, 0)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        prod = [0] * 7
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        g, p = self.g, self.p
        return tuple((prod[i] + g * prod[i + 4]) % p if i < 3 else prod[3] % p
                     for i in range(4))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError
        out, base, e = self.one, a, self.p ** 4 - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def point(self, rng: Random):
        return tuple(rng.randrange(self.p) for _ in range(4))


def _is_primitive_root(g: int, p: int) -> bool:
    n, q, factors = p - 1, 2, set()
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    return all(pow(g, (p - 1) // q, p) != 1 for q in factors)


def eval_field(p: int):
    return PrimeEval() if p == 0 else ExtEval(p)


# -- ring elements ----------------------------------------------------------


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:\*?x(?:\^(\d+))?)?$")


def parse_poly(text: str):
    """{degree: Fraction} from "c0 + c1*x + c2*x^2" (no whitespace)."""
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out: dict = {}
    for term in re.findall(r"[+-]?[^+-]+", text):
        m = _TERM.match(term)
        if not m or term.lstrip("+-") == "":
            raise CheckFailed(f"unreadable polynomial {text!r}")
        sign, coeff, exp = m.groups()
        has_x = "x" in term
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        d = (int(exp) if exp else 1) if has_x else 0
        out[d] = out.get(d, 0) + c
    return out


def parse_elem(text: str):
    """(num, den) coefficient maps of a ring-element string."""
    s = re.sub(r"\s+", "", text)
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and s[i + 1:i + 2] == "(":
            return parse_poly(s[:i]), parse_poly(s[i + 1:])
    return parse_poly(s), {0: Fraction(1)}


class Evaluator:
    """Evaluates polynomials and fractions at one point ``t`` of ``F``."""

    def __init__(self, field_p: int, rng: Random):
        self.F = eval_field(field_p)
        self.rng = rng
        self.t = self.F.point(rng)

    def poly(self, coeffs) -> object:
        """Value of a polynomial given as {degree: c} or as a sequence."""
        F, t = self.F, self.t
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        acc, power, last = F.zero, F.one, 0
        for d, c in sorted(items):
            if not c:
                continue
            while last < d:
                power = F.mul(power, t)
                last += 1
            acc = F.add(acc, F.mul(F.coeff(c), power))
        return acc

    def frac(self, num, den):
        d = self.poly(den)
        return self.F.mul(self.poly(num), self.F.inv(d))

    def text_grid(self, grid):
        return [[self.frac(*parse_elem(s)) for s in row] for row in grid]

    def pair_grid(self, grid):
        """Grid of (num, den) coefficient sequences."""
        return [[self.frac(n, d) for n, d in row] for row in grid]

    def poly_grid(self, grid):
        return [[self.poly(e) for e in row] for row in grid]

    def vector(self, n: int):
        return [self.F.point(self.rng) for _ in range(n)]


def _apply(F, m, v):
    out = []
    for row in m:
        acc = F.zero
        for a, b in zip(row, v):
            if a != F.zero and b != F.zero:
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


def _vsum(F, *vs):
    out = list(vs[0])
    for v in vs[1:]:
        out = [F.add(a, b) for a, b in zip(out, v)]
    return out


def _shape(m, rows, cols, what):
    if len(m) != rows or any(len(r) != cols for r in m):
        raise CheckFailed(f"{what} is not {rows}x{cols}")


def _with_point(field_p: int, rng: Random, check):
    """Run ``check(evaluator)`` at a point where every denominator is a
    unit; a denominator vanishing at the point only moves the point."""
    for _ in range(8):
        try:
            return check(Evaluator(field_p, rng))
        except ZeroDivisionError:
            continue
    raise CheckFailed("no evaluation point avoids the denominators")


# -- block sums from labels --------------------------------------------------


def canonical_block_sum(labels):
    """(d0, d1) polynomial grids of the labelled block sum in canonical
    order: unshifted labels by ascending j, then shifted ones; K(j)[1]
    has d0 = -x^j."""
    order = sorted(labels, key=lambda lab: (lab[1], lab[0]))
    n = len(order)
    d0 = [[[] for _ in range(n)] for _ in range(n)]
    d1 = [[[] for _ in range(n)] for _ in range(n)]
    for t, (j, shifted) in enumerate(order):
        mono = [0] * j + [-1 if shifted else 1]
        if shifted:
            d0[t][t] = mono
        else:
            d1[t][t] = mono
    return d0, d1


# -- checks -------------------------------------------------------------------


def check_hom(labels_x, labels_y, factors, free_rank) -> None:
    """Hom factors between labelled block sums: {min(i, j)}, free rank 0."""
    expect = sorted(min(i, j) for i, _ in labels_x for j, _ in labels_y)
    if sorted(factors) != expect or free_rank != 0:
        raise CheckFailed(
            f"Hom factors {sorted(factors)} free {free_rank}, expected {expect} free 0")


def check_null_homotopy(inst, m: int, witness, rng: Random) -> None:
    """x^m id_X is null-homotopic iff m >= max j; a witness (s0, s1),
    given as grids of (num, den) coefficient sequences, must satisfy
    d1 s0 + s1 d0 = x^m and d0 s1 + s0 d1 = x^m."""
    expect = m >= max(j for j, _ in inst.labels)
    if (witness is not None) != expect:
        raise CheckFailed(f"x^{m} id null-homotopic: got {witness is not None}, "
                          f"expected {expect}")
    if witness is None:
        return
    n = inst.rank
    s0_pairs, s1_pairs = witness
    _shape(s0_pairs, n, n, "s0")
    _shape(s1_pairs, n, n, "s1")

    def check(ev: Evaluator):
        F = ev.F
        d0, d1 = ev.poly_grid(inst.d0), ev.poly_grid(inst.d1)
        s0, s1 = ev.pair_grid(s0_pairs), ev.pair_grid(s1_pairs)
        tm = ev.poly([0] * m + [1])
        v = ev.vector(n)
        fv = [F.mul(tm, a) for a in v]
        b0 = _vsum(F, _apply(F, d1, _apply(F, s0, v)), _apply(F, s1, _apply(F, d0, v)))
        b1 = _vsum(F, _apply(F, d0, _apply(F, s1, v)), _apply(F, s0, _apply(F, d1, v)))
        if b0 != fv or b1 != fv:
            raise CheckFailed("homotopy witness: d s + s d != x^m id")

    _with_point(inst.field.p, rng, check)


def _multiset(doc_list):
    out = Counter()
    for item in doc_list:
        out[(int(item["j"]), bool(item["shifted"]))] += int(item["mult"])
    return out


def check_decompose(inst, doc: dict, rng: Random) -> None:
    """The multiset equals the generator's labels; the minimal model has
    rank = number of labels; to_blocks and from_blocks compose to the
    identity both ways and commute with the differentials of the minimal
    model and of the canonical block sum."""
    if _multiset(doc["multiset"]) != Counter(inst.labels):
        raise CheckFailed(f"decompose multiset {doc['multiset']} != {inst.labels}")
    n = len(inst.labels)
    mini = doc["minimal"]
    if (mini["r0"], mini["r1"]) != (n, n):
        raise CheckFailed(f"minimal ranks ({mini['r0']}, {mini['r1']}) != ({n}, {n})")
    for key in ("to_blocks", "from_blocks"):
        for part in ("f0", "f1"):
            _shape(doc[key][part], n, n, f"{key}.{part}")
    _shape(mini["d0"], n, n, "minimal.d0")
    _shape(mini["d1"], n, n, "minimal.d1")
    b0_poly, b1_poly = canonical_block_sum(inst.labels)

    def check(ev: Evaluator):
        F = ev.F
        p0, p1 = (ev.text_grid(doc["to_blocks"][k]) for k in ("f0", "f1"))
        q0, q1 = (ev.text_grid(doc["from_blocks"][k]) for k in ("f0", "f1"))
        m0, m1 = ev.text_grid(mini["d0"]), ev.text_grid(mini["d1"])
        b0, b1 = ev.poly_grid(b0_poly), ev.poly_grid(b1_poly)
        v = ev.vector(n)
        for p, q, deg in ((p0, q0, 0), (p1, q1, 1)):
            if _apply(F, p, _apply(F, q, v)) != v or _apply(F, q, _apply(F, p, v)) != v:
                raise CheckFailed(f"certificates do not compose to the identity "
                                  f"in degree {deg}")
        if _apply(F, p1, _apply(F, m0, v)) != _apply(F, b0, _apply(F, p0, v)):
            raise CheckFailed("to_blocks does not commute with d0")
        if _apply(F, p0, _apply(F, m1, v)) != _apply(F, b1, _apply(F, p1, v)):
            raise CheckFailed("to_blocks does not commute with d1")

    _with_point(inst.field.p, rng, check)


def check_cohomology(inst, doc: dict) -> None:
    """H0 factors are the j of the unshifted labels, H1 those of the
    shifted labels; no free part."""
    for key, shifted in (("H0", False), ("H1", True)):
        expect = sorted(j for j, s in inst.labels if s == shifted)
        got = doc[key]
        if sorted(got["factors"]) != expect or got["free_rank"] != 0:
            raise CheckFailed(f"{key} = {got}, expected factors {expect}")


def expected_middle(i: int, shifted: bool) -> Counter:
    """Middle term of the AR-triangle ending at K(i)[e]: K(i-1) + K(i+1)."""
    return Counter({(j, shifted): 1 for j in (i - 1, i + 1) if j >= 1})


def check_triangle(i: int, right_passed: bool, left_passed: bool,
                   middle: Counter) -> None:
    if not (right_passed and left_passed):
        raise CheckFailed(f"AR axioms at K({i}): right {right_passed}, left {left_passed}")
    if middle != expected_middle(i, False):
        raise CheckFailed(f"middle term at K({i}) is {dict(middle)}")


def check_quiver(bound: int, vertices, edges, verified: bool, reports) -> None:
    """``edges`` are ((j, shifted), (j, shifted), mult); ``reports`` are
    (target label, middle Counter, passed) per verified triangle."""
    labs = [(j, s) for s in (False, True) for j in range(1, bound + 1)]
    if sorted(vertices) != sorted(labs):
        raise CheckFailed(f"quiver vertices {sorted(vertices)}")
    expect = sorted(((i + a, s), (i + 1 - a, s), 1)
                    for s in (False, True) for i in range(1, bound) for a in (0, 1))
    if sorted(edges) != expect:
        raise CheckFailed(f"quiver edges {sorted(edges)}, expected {expect}")
    if not verified:
        raise CheckFailed("quiver reports verified = False")
    if sorted(r[0] for r in reports) != sorted(labs):
        raise CheckFailed("quiver does not verify one triangle per vertex")
    for (j, s), middle, passed in reports:
        if not passed or middle != expected_middle(j, s):
            raise CheckFailed(f"triangle ending at K({j}){'[1]' if s else ''}: "
                              f"passed {passed}, middle {dict(middle)}")
