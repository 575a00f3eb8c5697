"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: invariant factors
come from determinantal divisors (cofactor determinants on the entries,
no elimination and no matrix code of the package), and Hom-lengths
between the rank-(1,1) indecomposables come from solving the two-unknown
commutation system by exponent arithmetic alone.
"""

from itertools import combinations

from periodica import RMatrix
from periodica.localring import one, zero


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
