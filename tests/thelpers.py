"""Small builders and checks shared by the test modules."""

from random import Random

from periodica import (
    ARTriangle,
    ChainMap2,
    IndecompMultiset,
    RMatrix,
    TwoPeriodicComplex,
    assemble,
    direct_sum,
    parse_element,
    reduce,
    x_power,
)
from periodica.classify import decompose, decomposition_certificate, label
from periodica.localring import elem
from periodica.minimal import TrivialType, trivial_complex
from periodica.rand import conjugate_complex, random_scalar
from periodica.serialize import complex_to_doc, map_to_doc, matrix_to_grid

from oracles import is_invertible


def model_complex(lab, field) -> TwoPeriodicComplex:
    """The model complex K(j) or K(j)[1] of one label."""
    return assemble(IndecompMultiset.from_labels([lab]), field)


def zero_complex(field) -> TwoPeriodicComplex:
    z = RMatrix.zeros(field, 0, 0)
    return TwoPeriodicComplex(field, 0, 0, z, z)


def zero_map(src, dst) -> ChainMap2:
    """The zero map, through the checked constructor (which refuses
    endpoints over different fields)."""
    return ChainMap2(src, dst, RMatrix.zeros(src.field, dst.r0, src.r0),
                     RMatrix.zeros(src.field, dst.r1, src.r1))


def add_maps(f: ChainMap2, g: ChainMap2) -> ChainMap2:
    """f + g, through the checked constructor."""
    assert (f.src, f.dst) == (g.src, g.dst), "sum of maps with other ends"
    return ChainMap2(f.src, f.dst, f.f0 + g.f0, f.f1 + g.f1)


def random_unit(rng, field):
    """A nonzero constant c, plus x or x^2 half of the time."""
    c = field.zero
    while c == field.zero:
        c = random_scalar(rng, field)
    u = elem(field, (c,))
    if rng.random() < 0.5:
        u = u + x_power(field, rng.randint(1, 2))
    return u


def chain_map_to_doc(f: ChainMap2) -> dict:
    """The chain-map document of f with both ends inline."""
    return {"src": complex_to_doc(f.src), "dst": complex_to_doc(f.dst),
            **map_to_doc(f)}


def quasi_to_doc(q) -> dict:
    """The quasi-periodic document of q."""
    return {"field": q.field.label, "r0": q.r0, "r1": q.r1,
            **{k: matrix_to_grid(getattr(q, k))
               for k in ("alpha0", "alpha1", "phi0", "phi1")}}


def mat(field, rows, cols, entries):
    """Matrix from a grid of element strings."""
    ents = tuple(parse_element(field, s) for row in entries for s in row)
    return RMatrix(field, rows, cols, ents)


def cx(field, r0, r1, d0_strings, d1_strings) -> TwoPeriodicComplex:
    """Validated complex from string grids (d0 is r1 x r0, d1 is r0 x r1)."""
    return TwoPeriodicComplex(field, r0, r1, mat(field, r1, r0, d0_strings),
                              mat(field, r0, r1, d1_strings))


def rechecked_complex(x: TwoPeriodicComplex) -> TwoPeriodicComplex:
    """x built again through the checked constructor, which raises
    NotAComplexError unless d1 d0 = 0 and d0 d1 = 0."""
    return TwoPeriodicComplex(x.field, x.r0, x.r1, x.d0, x.d1)


def first_nonzero(m: RMatrix):
    """(i, j) of the first nonzero entry of m in row-major order, or None."""
    return next((divmod(k, m.cols) for k, e in enumerate(m.entries) if e),
                None)


def col(field, entries):
    ents = tuple(parse_element(field, s) for s in entries)
    return RMatrix(field, len(ents), 1, ents)


def random_complex(rng, field, r0, r1):
    """A conjugated complex of ranks (r0, r1): rank-(1, 1) summands K(j),
    K(j)[1] or trivial, and zero differentials on the rest."""
    c = rng.randint(0, min(r0, r1))
    parts = []
    for _ in range(c):
        kind = rng.randrange(3)
        if kind:
            parts.append(trivial_complex(TrivialType(kind), 1, field))
        else:
            lab = label(rng.randint(1, 3), shifted=rng.random() < 0.5)
            parts.append(model_complex(lab, field))
    parts.append(TwoPeriodicComplex(
        field, r0 - c, r1 - c, RMatrix.zeros(field, r1 - c, r0 - c),
        RMatrix.zeros(field, r0 - c, r1 - c)))
    return conjugate_complex(rng, direct_sum(*parts), max_val=2)[0]


def is_homotopy_iso(f: ChainMap2) -> bool:
    """Transport f to the minimal models; there an isomorphism in the
    homotopy category has invertible components in both degrees."""
    sx = reduce(f.src)
    sy = reduce(f.dst)
    g0 = sy.back.f0 @ f.f0 @ sx.into.f0
    g1 = sy.back.f1 @ f.f1 @ sx.into.f1
    mx, my = sx.minimal, sy.minimal
    # minimal summand sits first in the block sum coordinates
    g0_min = g0.submatrix(0, my.r0, 0, mx.r0)
    g1_min = g1.submatrix(0, my.r1, 0, mx.r1)
    if (mx.r0, mx.r1) != (my.r0, my.r1):
        return False
    return is_invertible(g0_min) and is_invertible(g1_min)


def scale_inverse_certificates(monkeypatch, calls=(0, 1), cols=None):
    """Make the given calls (numbered from 0) of ``TrackedBasis.matrices``
    return p and q with the columns ``cols`` of q doubled (all of them
    when None).  Where (q0, q1) is a chain map so is (2 q0, 2 q1), and so
    is q with one degree's columns doubled where both differentials of
    the source vanish on them; so only an identity check such as p q = I
    can reject the pair."""
    from periodica.localring import one
    from periodica.smith import TrackedBasis

    real = TrackedBasis.matrices
    seen = []

    def scaled(self):
        p, q = real(self)
        seen.append(None)
        if len(seen) - 1 not in calls:
            return p, q
        two = one(self.field) + one(self.field)
        return p, RMatrix(q.field, q.rows, q.cols, tuple(
            two * e if cols is None or k % q.cols in cols else e
            for k, e in enumerate(q.entries)))

    monkeypatch.setattr(TrackedBasis, "matrices", scaled)


def high_degree_complex(seed, field, n=6, degree=50):
    """A block sum of n labels K(j)[e], j <= 3, conjugated by 2n
    elementary matrices E(l) = I + l e_ab in each degree, where
    l = c x^degree + a x + b with a, b in 1..9, and c = 123456789/7 over
    Q and 5 over F_p.  Entries have no denominator; products of the
    conjugations raise their degrees to several times ``degree`` (351 for
    seed 1 and the defaults).  Seeded, so a seed names one document."""
    rng = Random(seed)
    x = assemble(IndecompMultiset.from_labels(
        label(rng.randint(1, 3), rng.random() < 0.5) for _ in range(n)),
        field)
    c = (field.mul(field.of_int(123456789), field.inv(field.of_int(7)))
         if field.is_rationals else field.of_int(5))
    d0, d1 = x.d0, x.d1
    for _ in range(2 * n):
        for in_f1 in (False, True):
            lam = elem(field, [field.of_int(rng.randint(1, 9)),
                               field.of_int(rng.randint(1, 9))]
                       + [field.zero] * (degree - 2) + [c])
            a, b = rng.sample(range(n), 2)
            e, e_inv = (RMatrix(field, n, n, tuple(
                s if k == a * n + b else u
                for k, u in enumerate(RMatrix.identity(field, n).entries)))
                for s in (lam, -lam))
            # E changes the basis of F0, then a fresh one that of F1
            if in_f1:
                d0, d1 = e @ d0, d1 @ e_inv
            else:
                d0, d1 = d0 @ e_inv, e @ d1
    return TwoPeriodicComplex(field, n, n, d0, d1)


def with_terms(t) -> ARTriangle:
    """t with the terms an AR verifier reads, found by decomposing N, M
    and E: ((multisets of N, M, E), (certificates of N, M, N[1], M[1])).
    For triangles that ``ar_triangle`` did not build, such as mutants."""
    dn, dm, de = decompose(t.n), decompose(t.m), decompose(t.e)
    cn, cm = decomposition_certificate(dn), decomposition_certificate(dm)
    return ARTriangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g, h=t.h, terms=(
        (dn.multiset, dm.multiset, de.multiset),
        (cn, cm, cn.shifted(), cm.shifted())))
