"""Small builders and checks shared by the test modules."""

from periodica import (
    ChainMap2,
    RMatrix,
    TwoPeriodicComplex,
    is_invertible,
    make_complex,
    parse_element,
    reduce,
)


def mat(field, rows, cols, entries):
    """Matrix from a grid of element strings."""
    ents = tuple(parse_element(field, s) for row in entries for s in row)
    return RMatrix(field, rows, cols, ents)


def cx(field, r0, r1, d0_strings, d1_strings) -> TwoPeriodicComplex:
    """Validated complex from string grids (d0 is r1 x r0, d1 is r0 x r1)."""
    return make_complex(field,
                        mat(field, r1, r0, d0_strings),
                        mat(field, r0, r1, d1_strings))


def col(field, entries):
    ents = tuple(parse_element(field, s) for s in entries)
    return RMatrix(field, len(ents), 1, ents)


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


def scale_inverse_certificates(monkeypatch, calls=(0, 1)):
    """Make the given calls (numbered from 0) of ``TrackedBasis.matrices``
    return (p, 2 q).  Where (q0, q1) is a chain map so is (2 q0, 2 q1),
    so only an identity check such as q p = I can reject the pair."""
    from periodica.localring import one
    from periodica.smith import TrackedBasis

    real = TrackedBasis.matrices
    seen = []

    def scaled(self):
        p, q = real(self)
        seen.append(None)
        if len(seen) - 1 not in calls:
            return p, q
        return p, q.scale(one(self.field) + one(self.field))

    monkeypatch.setattr(TrackedBasis, "matrices", scaled)
