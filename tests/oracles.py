"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: invariant factors
come from determinantal divisors (cofactor determinants on the entries,
no elimination and no matrix code of the package), and Hom-lengths
between the rank-(1,1) indecomposables come from solving the two-unknown
commutation system by exponent arithmetic alone.  Null-homotopy is
decided by a Smith solve of d s + s d = f on the Hom complex, which
goes through neither the classification nor the closed form that
``is_null_homotopic`` reads off block-sum certificates.  AR axiom 3 is
decided by testing each candidate map on its own, with Smith-route Hom
generators and that Smith solve, where ``artheory`` tests them in
batches on block-sum certificates.  The Hom and tensor complexes are
held to the Kronecker/block formula (``kron``), and strictification to
the ambient differentials conjugated one period at a time
(``ambient_differential``).  Invertibility is read off a Smith form
(``is_invertible``) for maps the package builds invertible by
construction and does not test.  A matrix product is held to the sum of
its terms one ``LocalElem`` addition at a time (``matmul_reference``),
where ``@`` groups a cell's polynomial terms and reduces them once.
The Q scale shortcut of ``poly.mul`` is held to one product per
coefficient (``q_scaled_reference``).  The text grammar is held to the element parser as it was before cells
landed as canonical elements (``parse_element_reference``): every
element through ``elem``, and every coefficient through ``field.add``;
its error messages echo at most the first 20 characters of a text, as
the package's do, so a message for a text of 20 characters or fewer is
the one of that parser.  A map is shifted between freshly shifted ends
(``shifted_map``), where the package passes ``shift_map`` the shifted
ends that it already holds.
"""

import re
from itertools import combinations

from periodica import (
    Homotopy2,
    RMatrix,
    compose,
    hom_module,
    homc,
    invert,
    negate_map,
    scale_map,
    shift,
    shift_map,
    smith_normal_form,
    solve_over_ring,
)
from periodica import ParseError, poly
from periodica.classify import IndecompMultiset, assemble, decompose, label
from periodica.fields import FieldSpec, Scalar, q_canon
from periodica.localring import (MAX_EXPONENT, _TERM_RE, LocalElem,
                                 _split_fraction, _strip_outer_parens, elem,
                                 one, x_power, zero)
from periodica.matrix import vstack
from periodica.poly import Poly


def _rows(a: RMatrix) -> list:
    return [a.entries[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)]


def _det(field, grid):
    """Cofactor expansion along the first row (ring operations only,
    exponential in the size)."""
    if not grid:
        return one(field)
    total = zero(field)
    for j, c in enumerate(grid[0]):
        if c:
            term = c * _det(field, [r[:j] + r[j + 1:] for r in grid[1:]])
            total = total - term if j % 2 else total + term
    return total


def det(a: RMatrix):
    """Determinant of a square matrix by cofactor expansion."""
    assert a.rows == a.cols, "determinant of a non-square matrix"
    return _det(a.field, _rows(a))


def determinantal_divisor_valuations(a: RMatrix):
    """Minimum valuation over all k x k minors, for k = 1, 2, ...; the list
    stops at the rank.  Uses cofactor determinants only."""
    grid = _rows(a)
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        best = None
        for rows in combinations(range(a.rows), k):
            sub_rows = [grid[i] for i in rows]
            for cols in combinations(range(a.cols), k):
                d = _det(a.field, [[r[j] for j in cols] for r in sub_rows])
                if d:
                    v = d.valuation
                    if best is None or v < best:
                        best = v
        if best is None:
            break
        out.append(best)
    return out


def invariant_factors_via_minors(a: RMatrix):
    """Exponents of the invariant factors as successive quotients of the
    determinantal divisors: a_k = d_k - d_(k-1)."""
    divs = determinantal_divisor_valuations(a)
    exps = []
    prev = 0
    for d in divs:
        exps.append(d - prev)
        prev = d
    return exps


def hom_length_kk(i: int, j: int, shifted_dst: bool) -> int:
    """Length of Hom(K(i), K(j)) or Hom(K(i), K(j)[1]) by hand.

    Unshifted target: chain maps are pairs (a, b) with x^i a = x^j b, the
    kernel of the 1 x 2 matrix [x^i, -x^j]; with v = min(i, j) the kernel
    is generated by (x^(j-v), x^(i-v)) and the homotopy boundary
    (x^j, x^i) is x^v times that generator, so the quotient is R/x^v.

    Shifted target: the commutation forces the even component to vanish,
    maps are (0, b) and boundaries are (0, c) with c in (x^i, x^j) =
    (x^min), so again R/x^min.
    """
    v = min(i, j)
    if shifted_dst:
        return v
    gen = (j - v, i - v)
    assert (gen[0] + v, gen[1] + v) == (j, i)  # boundary = x^v * generator
    return v


def hom_length_multisets(pairs_x, pairs_y) -> int:
    """Additivity: length of Hom between block sums of indecomposables.

    ``pairs_*`` are (j, shifted) label lists.  A map K(i)[e] -> K(j)[f]
    has the unshifted-target length when e == f and the shifted-target
    length when e != f (apply the shift to both sides)."""
    total = 0
    for (i, e) in pairs_x:
        for (j, f) in pairs_y:
            total += hom_length_kk(i, j, e != f)
    return total


def is_invertible(a: RMatrix) -> bool:
    """Whether a is invertible over R: square, with a Smith form of full
    rank and all exponents 0.  The package proves invertibility only
    inside ``invert``; the tests hold the maps it does not test (the
    window comparison maps, ``delta_iso``) to this."""
    if not a.is_square():
        return False
    s = smith_normal_form(a)
    return s.rank == a.rows and all(e == 0 for e in s.exponents)


def vec(a: RMatrix) -> RMatrix:
    """Column-major flattening into a (rows*cols) x 1 column, the order
    of the Hom-complex basis (``RMatrix.unvec`` reads it back)."""
    ents = tuple(a.at(i, j) for j in range(a.cols) for i in range(a.rows))
    return RMatrix(a.field, a.rows * a.cols, 1, ents)


def smith_null_homotopy(f):
    """A Homotopy2 s with d s + s d = f, or None when f is not
    null-homotopic: the degree-1 Hom-complex differential applied to
    the unknown (s0, s1) must give (f0, f1), solved by a Smith form."""
    x, y = f.src, f.dst
    b = vstack(x.field, [vec(f.f0), vec(f.f1)])
    sol = solve_over_ring(homc(x, y).d1, b)
    if sol is None:
        return None
    n0 = x.r0 * y.r1
    return Homotopy2(
        x, y,
        RMatrix.unvec(x.field, sol.submatrix(0, n0, 0, 1), y.r1, x.r0),
        RMatrix.unvec(x.field, sol.submatrix(n0, sol.rows, 0, 1), y.r0, x.r1))


def shifted_map(f):
    """f[1]: shift(f.src) -> shift(f.dst), both ends built afresh."""
    return shift_map(f, shift(f.src), shift(f.dst))


def ar3_counterexample(t, bound: int, side: str):
    """The first (label, generator index) in family order, K(1..bound)
    then K(1..bound)[1], whose AR3 candidate the connecting map does not
    kill, or None.  Each generator g of Hom(D, M) (right) or Hom(N, D)
    (left), or x g when D is the endpoint, is composed with the
    connecting map (h on the right, -h[1] on the left) and tested on its
    own by ``smith_null_homotopy``: the per-generator loop that
    ``artheory`` replaced by batched tests."""
    right = side == "right"
    conn = t.h if right else negate_map(shifted_map(t.h))
    end = t.m if right else t.n
    end_ms = decompose(end).multiset
    x = x_power(end.field, 1)
    for lab in [label(j, s) for s in (False, True) for j in range(1, bound + 1)]:
        d = assemble(IndecompMultiset.from_labels([lab]), end.field)
        gens = (hom_module(d, t.m) if right else hom_module(t.n, d)).generators
        at_endpoint = end_ms == IndecompMultiset.from_labels([lab])
        for idx, g in enumerate(gens):
            cand = scale_map(g, x) if at_endpoint else g
            comp = compose(conn, cand) if right else compose(cand, conn)
            if smith_null_homotopy(comp) is None:
                return lab, idx
    return None


def kron(a: RMatrix, b: RMatrix) -> RMatrix:
    """Kronecker product with the first factor's indices outer, the
    flattening order of the Hom-complex basis."""
    assert a.field == b.field, "Kronecker product over different fields"
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [zero(a.field)] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            e = a.at(i1, j1)
            for i2 in range(b.rows):
                for j2 in range(b.cols):
                    f = b.at(i2, j2)
                    if e and f:
                        out[(i1 * b.rows + i2) * cols + j1 * b.cols + j2] = e * f
    return RMatrix(a.field, rows, cols, tuple(out))


def matmul_reference(a: RMatrix, b: RMatrix) -> RMatrix:
    """a @ b entry by entry: each cell the sum, from zero, of all its
    terms a_it * b_tj, zeros included, one ``LocalElem`` addition at a
    time and with no shortcut for zero or identity operands."""
    assert a.field == b.field and a.cols == b.rows, "product shape"
    z = zero(a.field)
    return RMatrix(a.field, a.rows, b.cols, tuple(
        sum((a.at(i, t) * b.at(t, j) for t in range(a.cols)), z)
        for i in range(a.rows) for j in range(b.cols)))


def ambient_differential(q, n: int) -> RMatrix:
    """alpha^n of the ambient complex that period-2 conjugation generates
    from quasi-periodic data q, alpha^(i+2) = phi_(i+1) alpha^i phi_i^-1,
    computed from alpha0 or alpha1 on its own."""
    phi, inv = (q.phi0, q.phi1), (invert(q.phi0), invert(q.phi1))
    a = q.alpha0 if n % 2 == 0 else q.alpha1
    i = n % 2
    while i < n:
        a = phi[(i + 1) % 2] @ a @ inv[i % 2]
        i += 2
    while i > n:
        a = inv[(i - 1) % 2] @ a @ phi[i % 2]
        i -= 2
    return a


# -- the Q scale shortcut of poly.mul, as it multiplied before it ran on
# integer numerators ------------------------------------------------------


def q_scaled_reference(c: Scalar, g: Poly) -> Poly:
    """c * g over Q, c != 0: one ``Fraction`` or ``int`` product per
    coefficient, each made canonical."""
    return tuple([q_canon(c * b) for b in g])


# -- the text grammar, as parsed before cells landed as canonical elements ----


def _exponent_reference(token: str) -> int:
    # digit count first: int() refuses tokens over 4300 digits
    if len(token.lstrip("0")) > len(str(MAX_EXPONENT)) or int(token) > MAX_EXPONENT:
        raise ParseError(f"exponent {token[:20]} exceeds the limit {MAX_EXPONENT}")
    return int(token)


def parse_poly_reference(field: FieldSpec, text: str) -> Poly:
    """Parse "c0 + c1*x + c2*x^2" (whitespace already removed)."""
    s = _strip_outer_parens(text)
    if not s:
        raise ParseError("empty polynomial")
    if "(" in s or ")" in s:
        raise ParseError(f"unexpected parentheses in polynomial {text[:20]!r}")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ParseError(f"malformed polynomial {text[:20]!r}")
    coeffs: dict[int, Scalar] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError(f"bad term {term[:20]!r} in polynomial {text[:20]!r}")
        sign, coeff_tok, xpart, exp_tok = m.groups()
        if coeff_tok is None:
            c = field.one
        else:
            c = field.parse_scalar(coeff_tok)
        if sign == "-":
            c = field.neg(c)
        d = 0 if xpart is None else (1 if exp_tok is None else _exponent_reference(exp_tok))
        coeffs[d] = field.add(coeffs.get(d, field.zero), c)
    if not coeffs:
        raise ParseError(f"empty polynomial {text!r}")
    out = [field.zero] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return poly.trim(field, out)


def parse_element_reference(field: FieldSpec, text: str) -> LocalElem:
    """Parse an element of R from the shared text grammar."""
    if text == "0":  # most entries of a document; the grammar gives zero
        return zero(field)
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty ring element")
    num_part, den_part = _split_fraction(s)
    num = parse_poly_reference(field, num_part)
    if den_part is None:
        return elem(field, num)
    den = parse_poly_reference(field, den_part)
    if poly.eval0(field, den) == field.zero:
        raise ParseError(f"denominator vanishes at x = 0 in {text[:20]!r}")
    return elem(field, num, den)
