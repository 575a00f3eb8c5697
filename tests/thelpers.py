"""Small builders shared by the test modules."""

from periodica import RMatrix, TwoPeriodicComplex, make_complex, parse_element


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
