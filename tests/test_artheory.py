"""Serre functor, socle maps, AR-triangles and their axioms, Serre-length
symmetry, and the quiver builder."""

import random
from pathlib import Path

import pytest

from periodica import (
    FieldSpec,
    InvalidChainMapError,
    RMatrix,
    Triangle,
    ar_triangle,
    build_quiver,
    direct_sum,
    hom_module,
    identity_map,
    is_homotopy_iso,
    is_null_homotopic,
    k_complex,
    one,
    quiver_dot,
    scale_map,
    serre_functor,
    serre_length_check,
    shift,
    shift_triangle,
    socle_map,
    translate,
    verify_left_ar,
    verify_right_ar,
    verify_triangle,
    x_power,
    zero_map,
)
from periodica.artheory import QuiverEdge
from periodica.matrix import block, kron, vstack
from periodica.classify import IndecompMultiset, assemble, decompose, label
from periodica.rand import random_multiset

import oracles

Q = FieldSpec.rationals()
GOLDEN = Path(__file__).parent / "golden"


def ms(*labs):
    return IndecompMultiset.from_labels([label(j, s) for j, s in labs])


# -- Serre functor on labels ----------------------------------------------------

def test_serre_flips_shift_class():
    assert serre_functor(ms((3, False))) == ms((3, True))
    assert serre_functor(ms((1, False), (2, True))) == ms((1, True), (2, False))


def test_serre_involutive_and_translate_identity():
    m = ms((1, False), (4, True), (4, True))
    assert serre_functor(serre_functor(m)) == m
    assert translate(m) == m


# -- socle maps -------------------------------------------------------------------

def test_socle_map_not_null_and_x_annihilates():
    for i in (1, 3):
        w = socle_map(i, Q)
        assert is_null_homotopic(w) is None
        xw = scale_map(w, x_power(Q, 1))
        assert is_null_homotopic(xw) is not None


def test_socle_shape():
    w = socle_map(3, Q)
    assert w.f0.is_zero()
    assert w.f1.at(0, 0).valuation == 2  # x^(i-1) times a unit


# -- AR triangles ------------------------------------------------------------------

def test_ar_triangle_middles():
    assert decompose(ar_triangle(1, Q).e).multiset == ms((2, False))
    assert decompose(ar_triangle(2, Q).e).multiset == ms((1, False), (3, False))
    assert decompose(ar_triangle(5, Q).e).multiset == ms((4, False), (6, False))


def test_ar_triangle_is_exact():
    for i in (1, 2, 3):
        assert verify_triangle(ar_triangle(i, Q))


@pytest.mark.parametrize("label_", ["Q", "Fp:101"])
def test_verify_triangle_accepts_conjugated_middle(label_):
    # E replaced by a random conjugate, f and g transported: the strict
    # fast path no longer applies, so the comparison solve must certify it
    from periodica import compose
    from periodica.rand import conjugate_complex

    field = FieldSpec.from_label(label_)
    rng = random.Random(7)
    for i in (1, 2, 3):
        t = ar_triangle(i, field)
        e2, fwd, bwd = conjugate_complex(rng, t.e)
        assert e2 != t.e
        moved = Triangle(n=t.n, e=e2, m=t.m, f=compose(fwd, t.f),
                         g=compose(t.g, bwd), h=t.h)
        assert verify_triangle(moved)
        broken = Triangle(n=t.n, e=e2, m=t.m, f=moved.f, g=moved.g,
                          h=zero_map(t.m, shift(t.n)))
        assert not verify_triangle(broken)


@pytest.mark.parametrize("label_", ["Q", "Fp:101"])
def test_verify_triangle_rejects_non_iso_comparison(label_):
    # E' = E + K(1) with f' = (f, 0) and g' = (g, 0): the inclusion of the
    # strict cone E into E' is a comparison map, but K(1) is not
    # contractible, so no comparison map is a homotopy isomorphism
    from periodica import sum_map, zero_complex
    from periodica.artheory import _solve_comparison

    field = FieldSpec.from_label(label_)
    k1, nothing = k_complex(1, field), zero_complex(field)
    for i in (1, 2, 3):
        t = ar_triangle(i, field)
        padded = Triangle(n=t.n, e=direct_sum(t.e, k1), m=t.m,
                          f=sum_map(t.f, zero_map(nothing, k1)),
                          g=sum_map(t.g, zero_map(k1, nothing)), h=t.h)
        # the fallback finds a comparison map; only the guard rejects it
        phi = _solve_comparison(t.e, t.f, t.g, padded)
        assert phi is not None and not is_homotopy_iso(phi)
        assert not verify_triangle(padded)


def _comparison_system_by_kron(c, u, v, t):
    """Reference: the comparison system of ``verify_triangle`` assembled
    equation by equation, each product with a matrix written as a
    Kronecker product (vec(a F) = (I (x) a) vec F, vec(F b) = (b^T (x) I)
    vec F); unknowns phi0, phi1, s0, s1, t0, t1."""
    field, e, n, m = c.field, t.e, t.n, t.m
    sizes = {"phi0": e.r0 * c.r0, "phi1": e.r1 * c.r1,
             "s0": e.r1 * n.r0, "s1": e.r0 * n.r1,
             "t0": m.r1 * c.r0, "t1": m.r0 * c.r1}
    rows, rhs = [], []

    def lmul(a, cols):
        return kron(RMatrix.identity(field, cols), a)

    def rmul(b, rows_):
        return kron(b.transpose(), RMatrix.identity(field, rows_))

    def equation(coeffs, right):
        height = right.rows * right.cols
        rows.append(block(field, [[
            coeffs.get(k, RMatrix.zeros(field, height, w))
            for k, w in sizes.items()]]))
        rhs.append(right.vec())

    z = RMatrix.zeros
    equation({"phi0": lmul(e.d0, c.r0), "phi1": -rmul(c.d0, e.r1)},
             z(field, e.r1, c.r0))
    equation({"phi1": lmul(e.d1, c.r1), "phi0": -rmul(c.d1, e.r0)},
             z(field, e.r0, c.r1))
    equation({"phi0": rmul(u.f0, e.r0),
              "s0": -lmul(e.d1, n.r0), "s1": -rmul(n.d0, e.r0)}, t.f.f0)
    equation({"phi1": rmul(u.f1, e.r1),
              "s1": -lmul(e.d0, n.r1), "s0": -rmul(n.d1, e.r1)}, t.f.f1)
    equation({"phi0": lmul(t.g.f0, c.r0),
              "t0": -lmul(m.d1, c.r0), "t1": -rmul(c.d0, m.r0)}, v.f0)
    equation({"phi1": lmul(t.g.f1, c.r1),
              "t1": -lmul(m.d0, c.r1), "t0": -rmul(c.d1, m.r1)}, v.f1)
    return vstack(field, rows), vstack(field, rhs)


def _comparison_cases(field):
    """Triangles off the strict fast path: conjugated middles (exact) and
    the padded E + K(1) (a comparison map that is not an isomorphism)."""
    from periodica import compose, sum_map, zero_complex
    from periodica.rand import conjugate_complex

    rng = random.Random(11)
    k1, nothing = k_complex(1, field), zero_complex(field)
    for i in (1, 2, 3):
        t = ar_triangle(i, field)
        e2, fwd, bwd = conjugate_complex(rng, t.e)
        yield True, Triangle(n=t.n, e=e2, m=t.m, f=compose(fwd, t.f),
                             g=compose(t.g, bwd), h=t.h)
        yield False, Triangle(n=t.n, e=direct_sum(t.e, k1), m=t.m,
                              f=sum_map(t.f, zero_map(nothing, k1)),
                              g=sum_map(t.g, zero_map(k1, nothing)), h=t.h)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_comparison_system_matches_kron_formula(label_, monkeypatch):
    # the system built from the Hom-complex differentials is the one
    # written equation by equation, entry for entry
    import periodica.artheory as artheory
    from periodica import cone, negate_map, shift_map

    systems = []
    real = artheory.solve_over_ring

    def spy(a, b):
        systems.append((a, b))
        return real(a, b)

    monkeypatch.setattr(artheory, "solve_over_ring", spy)
    for exact, t in _comparison_cases(FieldSpec.from_label(label_)):
        systems.clear()
        assert verify_triangle(t) is exact
        assert len(systems) == 1
        c, u, v = cone(shift_map(negate_map(t.h)))
        assert systems[0] == _comparison_system_by_kron(c, u, v, t)


def test_comparison_rejects_a_solution_that_is_not_a_chain_map(monkeypatch):
    # an internal error surfaces; it is not read as "no certificate"
    import periodica.artheory as artheory

    real = artheory.solve_over_ring

    def broken(a, b):
        sol = real(a, b)
        ents = list(sol.entries)
        ents[0] = ents[0] + one(Q)
        return RMatrix(Q, sol.rows, 1, tuple(ents))

    monkeypatch.setattr(artheory, "solve_over_ring", broken)
    exact, t = next(_comparison_cases(Q))
    with pytest.raises(InvalidChainMapError):
        verify_triangle(t)


@pytest.mark.parametrize("label_", ["Q", "Fp:3"])
def test_endpoint_non_isomorphisms_are_x_hom(label_):
    # axiom 3 tests x g for the generator g of Hom(D, D) when D is the
    # endpoint: End(K(i)) = R/x^i is local with radical x End
    field = FieldSpec.from_label(label_)
    x = x_power(field, 1)
    for i in range(1, 7):
        for d in (k_complex(i, field), shift(k_complex(i, field))):
            gens = hom_module(d, d).generators
            assert len(gens) == 1
            assert is_homotopy_iso(gens[0])
            assert not is_homotopy_iso(scale_map(gens[0], x))


def test_verify_right_ar_passes():
    for i in (1, 2, 3):
        rep = verify_right_ar(ar_triangle(i, Q), bound=i + 3)
        assert rep.passed, rep


def test_verify_left_ar_passes():
    for i in (1, 2, 3):
        rep = verify_left_ar(ar_triangle(i, Q), bound=i + 3)
        assert rep.passed, rep


def test_rar3_fails_for_non_socle_connecting_map():
    # replace h by a full generator of Hom(K(3), K(3)[1]): axiom 3 must fail
    t = ar_triangle(3, Q)
    g = hom_module(t.m, shift(t.n)).generators[0]
    mutated = Triangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g, h=g)
    rep = verify_right_ar(mutated, bound=3)
    assert not rep.axioms[2]  # axiom 3
    assert rep.counterexample is not None
    lab, idx = rep.counterexample
    assert lab in (label(1, False), label(2, False))
    # the failing witness re-verifies: h t is genuinely not null-homotopic
    d = assemble(IndecompMultiset.from_labels([lab]), Q)
    cand = hom_module(d, t.m).generators[idx]
    from periodica import compose
    assert is_null_homotopic(compose(g, cand)) is None


def test_rar2_fails_for_zero_connecting_map():
    t = ar_triangle(2, Q)
    mutated = Triangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g,
                       h=zero_map(t.m, shift(t.n)))
    rep = verify_right_ar(mutated, bound=3)
    assert not rep.axioms[1]  # axiom 2


def test_ar_verify_decomposes_each_complex_once(monkeypatch, capsys):
    # N = M = K(2) and E = K(1) + K(3): two decompositions serve both sides
    import periodica.artheory as artheory
    from periodica.cli import main

    calls = []
    real = artheory.decompose

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(artheory, "decompose", counting)
    assert main(["ar-verify", "--i", "2", "--format", "json"]) == 0
    assert len(calls) == 2
    assert '"passed": true' in capsys.readouterr().out
    calls.clear()
    verify_right_ar(ar_triangle(2, Q), bound=5)
    assert len(calls) == 2


def test_shifted_triangle_verifies():
    t = shift_triangle(ar_triangle(2, Q))
    rep = verify_right_ar(t, bound=5)
    assert rep.passed
    assert rep.middle == ms((1, True), (3, True))


# -- Serre duality lengths -----------------------------------------------------------

def test_serre_length_pairs_small():
    ks = [k_complex(i, Q) for i in (1, 2, 5)] + \
        [shift(k_complex(i, Q)) for i in (1, 2)]
    for a in ks:
        for b in ks:
            assert serre_length_check(a, b)


def test_serre_length_closed_form():
    # both sides equal sums of min(i, j) by the closed-form oracle
    x = direct_sum(k_complex(1, Q), k_complex(3, Q))
    y = k_complex(2, Q)
    assert hom_module(x, y).length() == \
        oracles.hom_length_multisets([(1, False), (3, False)], [(2, False)])
    assert serre_length_check(x, y)


def test_serre_length_random_sums(rng):
    for _ in range(5):
        mx = random_multiset(rng, 2, 3)
        my = random_multiset(rng, 2, 3)
        x = assemble(mx, Q)
        y = assemble(my, Q)
        assert serre_length_check(x, y)
        lhs = hom_module(x, y).length()
        assert lhs == oracles.hom_length_multisets(
            [(l.j, l.shifted) for l in mx.labels()],
            [(l.j, l.shifted) for l in my.labels()])


# -- dichotomy -----------------------------------------------------------------------

def test_end_k1_dichotomy(rng):
    k1 = k_complex(1, Q)
    hm = hom_module(k1, k1)
    assert hm.factors == (1,)
    for g in hm.generators:
        assert is_homotopy_iso(g) or is_null_homotopic(g) is not None
    from periodica.rand import random_element
    from periodica import add_maps, ChainMap2, Homotopy2
    from periodica.rand import random_matrix
    for _ in range(20):
        c = random_element(rng, Q, max_val=2)
        f = scale_map(hm.generators[0], c)
        # plus a random null-homotopic perturbation
        s0 = random_matrix(rng, Q, 1, 1, max_val=2)
        s1 = random_matrix(rng, Q, 1, 1, max_val=2)
        b0, b1 = Homotopy2(k1, k1, s0, s1).boundary()
        f = add_maps(f, ChainMap2(k1, k1, b0, b1))
        assert is_homotopy_iso(f) or is_null_homotopic(f) is not None


# -- quiver ---------------------------------------------------------------------------

def test_quiver_bound_4_shape():
    res = build_quiver(4, Q)
    assert res.verified
    assert len(res.graph.vertices) == 8
    assert len(res.graph.edges) == 12
    for e in res.graph.edges:
        assert e.mult == 1
        assert e.src.shifted == e.dst.shifted  # no cross edges
        assert abs(e.src.j - e.dst.j) == 1     # chain shape


def test_quiver_bound_2():
    res = build_quiver(2, Q)
    assert res.verified
    names = {(e.src.name, e.dst.name) for e in res.graph.edges}
    assert names == {("K(1)", "K(2)"), ("K(2)", "K(1)"),
                     ("K(1)[1]", "K(2)[1]"), ("K(2)[1]", "K(1)[1]")}


def test_quiver_dot_deterministic():
    a = quiver_dot(build_quiver(3, Q).graph)
    b = quiver_dot(build_quiver(3, Q).graph)
    assert a == b
    assert a.startswith("digraph ar_quiver {")
    assert '"K(1)" -> "K(2)" [mult=1];' in a


@pytest.mark.parametrize("argv, name", [
    (["ar-verify", "--i", "2"], "ar-verify-i2"),
    (["ar-triangle", "--i", "2"], "ar-triangle-i2"),
    (["quiver", "--max", "4"], "quiver-max4"),
])
@pytest.mark.parametrize("label_, prefix", [("Q", "q"), ("Fp:3", "f3")])
def test_golden_ar_json(argv, name, label_, prefix, capsys):
    from periodica.cli import main

    assert main([*argv, "--field", label_, "--format", "json"]) == 0
    expected = (GOLDEN / f"{prefix}.{name}.json").read_text()
    assert capsys.readouterr().out == expected


def test_quiver_rejects_small_bound():
    with pytest.raises(ValueError):
        build_quiver(1, Q)
