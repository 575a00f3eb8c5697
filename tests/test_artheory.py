"""Serre functor, socle maps, AR-triangles and their axioms, Serre-length
symmetry, and the quiver builder."""

from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thelpers import (
    add_maps,
    high_degree_complex,
    is_homotopy_iso,
    model_complex,
    with_terms,
    zero_map,
)

from periodica import (
    BlockSumCertificate,
    FieldSpec,
    Triangle,
    ar_triangle,
    build_quiver,
    cone,
    direct_sum,
    hom_module,
    is_null_homotopic,
    k_complex,
    negate_map,
    quiver_dot,
    scale_map,
    serre_functor,
    serre_length_check,
    shift,
    shift_triangle,
    socle_map,
    verify_ar,
    verify_left_ar,
    verify_right_ar,
    x_power,
)
import periodica.artheory as artheory
import periodica.complexes as complexes
from periodica.classify import (
    IndecompMultiset,
    assemble,
    decompose,
    decomposition_certificate,
    label,
    model_certificate,
)
from periodica.localring import parse_element
from periodica.matrix import block, vstack
from periodica.minimal import TrivialType, trivial_complex
from periodica.rand import conjugate_complex, random_multiset

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
    # the translate is the Serre functor after [-1], and both flip the
    # shift class: F F = id on labels says the translate fixes every label
    assert serre_functor(serre_functor(m)) == m


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


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_ar_triangle_carries_its_terms(label_):
    # the terms ar_triangle and shift_triangle carry are those that
    # decomposing the terms gives, E's multiset (read off its cohomology)
    # included, also at i = 1, where E is K(2) plus a Type1 trivial
    # summand.  The certificate of K(i)[1] is the shift of K(i)'s, as
    # the verifiers built it when they decomposed (decomposing K(i)[1]
    # itself gives the equally valid one with P = Q = -1); each
    # passes the checked constructor.  N is the complex of socle_map's
    # certificate, so h runs between the certificates' own complexes
    field = FieldSpec.from_label(label_)
    for i in range(1, 41):
        t = ar_triangle(i, field)
        assert t.n is t.m is t.terms[1][0].complex is t.h.src
        assert t.h.dst is t.terms[1][2].complex
        c = decomposition_certificate(decompose(k_complex(i, field)))
        for tri, expected in ((t, (c, c, c.shifted(), c.shifted())),
                              (shift_triangle(t),
                               (c.shifted(), c.shifted(), c, c))):
            multisets, certs = tri.terms
            assert multisets == tuple(
                decompose(x).multiset for x in (tri.n, tri.m, tri.e))
            assert certs == expected
            for cert, x in zip(certs, (tri.n, tri.m, shift(tri.n),
                                       shift(tri.m))):
                assert cert.complex == x
                assert cert.labels == \
                    decomposition_certificate(decompose(x)).labels
                assert cert == BlockSumCertificate(
                    cert.labels, cert.to_blocks, cert.from_blocks,
                    cert.contraction)
    assert decompose(ar_triangle(1, field).e).split.type1 == 1


def test_ar_triangle_is_exact():
    # the triangle is literally the rotation of the strict cone triangle
    # on (-h)[-1], the exact triangle with connecting map h
    for label_ in ("Q", "Fp:3", "Fp:101"):
        for i in range(1, 6):
            t = ar_triangle(i, FieldSpec.from_label(label_))
            assert cone(oracles.shifted_map(negate_map(t.h))) == (t.e, t.f, t.g)


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
    mutated = with_terms(Triangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g, h=g))
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


@settings(max_examples=30, deadline=None)
@given(label_=st.sampled_from(["Q", "Fp:3", "Fp:101"]),
       i=st.integers(1, 26), data=st.data())
@example(label_="Q", i=21, data=None)
@example(label_="Fp:101", i=24, data=None)
def test_batched_ar3_matches_per_generator_loop(label_, i, data):
    # the connecting map x^k u g, g generating Hom(K(i), K(i)[1]) = R/x^i
    # and u a unit, in batches against testing each candidate on its own:
    # same axiom 3 and the same counterexample, also when the first
    # failing test object lies beyond the first batch (i >= 20 with k
    # near i fails first at K(k + 1)); unit multiples of the socle map
    # (k = i - 1) pass
    field = FieldSpec.from_label(label_)
    if data is None:
        k, unit, bound = i - 2, "1", i + 3
    else:
        k = data.draw(st.one_of(st.integers(0, i - 1),
                                st.integers(max(0, i - 4), i - 1)), label="k")
        unit = data.draw(st.sampled_from(["1", "2 + x", "(2 + x)/(1 - x)"]),
                         label="unit")
        bound = data.draw(st.integers(1, 2 * artheory._AR3_BATCH + 13),
                          label="bound")
    t = ar_triangle(i, field)
    g = hom_module(t.m, shift(t.n)).generators[0]
    h = scale_map(g, x_power(field, k) * parse_element(field, unit))
    t = with_terms(Triangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g, h=h))
    for rep in (verify_right_ar(t, bound), verify_left_ar(t, bound)):
        expected = oracles.ar3_counterexample(t, bound, rep.side)
        assert rep.counterexample == expected
        assert rep.axioms[2] == (expected is None)
        if k == i - 1:
            assert rep.passed
        if data is None:
            assert rep.counterexample[0].j == k + 1 > artheory._AR3_BATCH


def test_ar3_batches_are_bounded(monkeypatch):
    # no block sum tested in one go has more labels than the batch size,
    # also for a family of 400 test objects
    calls = []
    real = artheory.model_certificate

    def counting(labels, field):
        calls.append(len(labels))
        return real(labels, field)

    monkeypatch.setattr(artheory, "model_certificate", counting)
    t = ar_triangle(3, Q)
    assert all(r.passed for r in verify_ar(t, 200))
    assert max(calls) == artheory._AR3_BATCH
    assert calls.count(artheory._AR3_BATCH) == 2 * (400 // artheory._AR3_BATCH)


def test_rar2_fails_for_zero_connecting_map():
    t = ar_triangle(2, Q)
    mutated = with_terms(Triangle(n=t.n, e=t.e, m=t.m, f=t.f, g=t.g,
                                  h=zero_map(t.m, shift(t.n))))
    rep = verify_right_ar(mutated, bound=3)
    assert not rep.axioms[1]  # axiom 2


def _refuse_decompose(monkeypatch):
    """Make every decompose reachable from the AR layer and the CLI fail."""
    import periodica.classify as classify
    import periodica.cli as cli

    def refused(x):
        raise AssertionError("decompose called")

    for module in (artheory, classify, cli):
        monkeypatch.setattr(module, "decompose", refused)


def _count_smith(monkeypatch) -> list:
    """The inputs of every smith_normal_form call from here on."""
    import periodica.smith as smith

    calls = []
    real = smith.smith_normal_form

    def counting(a):
        calls.append(a)
        return real(a)

    for module in (smith, complexes):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    return calls


def _count_shifts(monkeypatch) -> list:
    """The input of every ``shift`` call from here on."""
    calls = []
    real = complexes.shift

    def counting(x):
        calls.append(x)
        return real(x)

    for module in (complexes, artheory):
        monkeypatch.setattr(module, "shift", counting)
    return calls


def _count_certificate_checks(monkeypatch) -> list:
    """For every end that ``_check_certificates`` checks from here on,
    whether the end is its certificate's own complex object."""
    calls = []
    real = complexes._check_certificates

    def counting(cx, cy, x, y):
        calls.extend((cx.complex is x, cy.complex is y))
        return real(cx, cy, x, y)

    monkeypatch.setattr(complexes, "_check_certificates", counting)
    return calls


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_ar_layer_shifts_each_complex_once(label_, monkeypatch):
    # ar_triangle shifts K(i) once for the certificate of K(i)[1] (X is
    # B there), the cone shifts its source M[1] and the Triangle check
    # shifts N; shift_triangle takes N[1] and M[1] from the carried
    # certificates, so it shifts E and, in its Triangle check, N[1].  The
    # verifiers shift nothing, and every certificate check on both sides
    # finds the certificate's own complex, so none compares by value
    field = FieldSpec.from_label(label_)
    shifts = _count_shifts(monkeypatch)
    checks = _count_certificate_checks(monkeypatch)
    for i in range(1, 6):
        shifts.clear()
        t = ar_triangle(i, field)
        s = shift_triangle(t)
        n1 = t.terms[1][2].complex
        assert s.n is n1 and s.m is t.terms[1][3].complex
        assert list(map(id, shifts)) == list(map(id, (t.n, n1, t.n, t.e, n1)))
        for tri in (t, s):
            assert all(r.passed for r in verify_ar(tri, bound=i + 3))
        assert len(shifts) == 5
    assert checks and all(checks)


def test_ar_layer_decomposes_nothing(monkeypatch, capsys):
    # N = M = K(2) carries the certificate socle_map builds, and E's
    # labels are read off its cohomology: two Smith forms, of E's d0 and
    # d1, in ar_triangle and none elsewhere; the verifiers and the CLI
    # read the carried terms
    from periodica.cli import main

    _refuse_decompose(monkeypatch)
    smiths = _count_smith(monkeypatch)
    t = ar_triangle(2, Q)
    assert smiths == [t.e.d0, t.e.d1]
    smiths.clear()
    assert verify_right_ar(t, bound=5).passed
    assert all(r.passed for r in verify_ar(shift_triangle(t), bound=5))
    assert smiths == []
    assert main(["ar-verify", "--i", "2", "--format", "json"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert main(["ar-triangle", "--i", "2", "--format", "json"]) == 0
    assert len(smiths) == 4


@pytest.mark.parametrize("bound", [2, 4])
def test_verify_ar_builds_no_hom_module(bound, monkeypatch):
    # AR3 reads its candidates off the models table: _verify_ar makes no
    # hom_module call, and builds one model_certificate per batch of at
    # most _AR3_BATCH candidates and no other.  Each test object has one
    # generator into K(i) (or K(i)[1]) and one out of it, so a family
    # bound b gives 2 b candidates per side, in ceil(2 b / n) batches

    triangles = []
    for i in range(1, bound + 1):
        t = ar_triangle(i, Q)
        triangles += [t, shift_triangle(t)]

    def refused(*args):
        raise AssertionError("hom_module called")

    calls = []
    real = artheory.model_certificate

    def counting(labels, field):
        calls.append(tuple(labels))
        return real(labels, field)

    monkeypatch.setattr(artheory, "hom_module", refused)
    monkeypatch.setattr(complexes, "hom_module", refused)
    monkeypatch.setattr(artheory, "model_certificate", counting)
    n = artheory._AR3_BATCH
    for t in triangles:
        for b in (bound, 8 * bound):
            for side in ("right", "left"):
                calls.clear()
                assert artheory._verify_ar(t, b, side).passed
                assert [len(c) for c in calls] == [
                    min(n, 2 * b - s) for s in range(0, 2 * b, n)]
                assert [lab for c in calls for lab in c] == \
                    artheory._family(b)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_label_coordinate_batch_is_the_hom_generators(label_):
    # the batch map of _batch_map is the hom_module generators of its
    # candidates, side by side (right) or stacked (left), in the same
    # index order and x-scaled at the endpoint, for endpoints whose
    # certificates are not identities: conjugated, non-minimal (with
    # trivial summands) and multi-label
    field = FieldSpec.from_label(label_)
    rng = Random(29)
    x = x_power(field, 1)
    ends = [high_degree_complex(seed, field, n=3, degree=4)
            for seed in (1, 2)]
    for lab in (label(2), label(3, True), label(1)):
        m = model_complex(lab, field)
        ends.append(conjugate_complex(rng, m, max_val=2)[0])
        parts = (m, trivial_complex(TrivialType.TYPE1, 1, field),
                 trivial_complex(TrivialType.TYPE2, 1, field))
        ends.append(conjugate_complex(rng, direct_sum(*parts), max_val=2)[0])
    bound = 4
    for end in ends:
        ce = decomposition_certificate(decompose(end))
        single = len(ce.labels) == 1
        for right in (True, False):
            expected = []
            for lab in artheory._family(bound):
                cd = model_certificate([lab], field)
                gens = (hom_module(cd.complex, end, (cd, ce)) if right else
                        hom_module(end, cd.complex, (ce, cd))).generators
                at_end = ce.labels == ((lab.j, lab.shifted),)
                expected += [(lab, idx, scale_map(g, x) if at_end else g)
                             for idx, g in enumerate(gens)]
            assert single == any(
                ce.labels == ((lab.j, lab.shifted),)
                for lab in artheory._family(bound))
            cands = list(artheory._ar3_candidates(
                right, artheory._family(bound), ce.labels))
            assert [c[:2] for c in cands] == [e[:2] for e in expected]
            for size in (1, 3, len(cands)):
                for s in range(0, len(cands), size):
                    batch = cands[s:s + size]
                    maps = [g for _, _, g in expected[s:s + size]]
                    cb, f = artheory._batch_map(end, ce, right, batch)
                    assert cb.labels == tuple(
                        (lab.j, lab.shifted) for lab, _, _ in batch)
                    join = (lambda ms: block(field, [ms])) if right else \
                        (lambda ms: vstack(field, ms))
                    assert f.f0 == join([g.f0 for g in maps])
                    assert f.f1 == join([g.f1 for g in maps])


@pytest.mark.parametrize("bound", [2, 4])
def test_build_quiver_decomposes_nothing(bound, monkeypatch):
    # no complex is decomposed: N = M = K(i) carries socle_map's
    # certificate, E's labels are read off its cohomology (two Smith
    # forms per triangle ending at K(i), i <= bound), and the shifted
    # triangle carries the shifted terms: five shifts per triangle ending
    # at K(i) and its shift image, and no certificate check by value
    # (test_ar_layer_shifts_each_complex_once)
    _refuse_decompose(monkeypatch)
    smiths = _count_smith(monkeypatch)
    shifts = _count_shifts(monkeypatch)
    checks = _count_certificate_checks(monkeypatch)
    assert build_quiver(bound, Q).verified
    assert len(smiths) == 2 * bound
    assert len(shifts) == 5 * bound
    assert checks and all(checks)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_build_quiver_derives_shifted_terms(label_):
    # the terms shift_triangle carries over from the unshifted triangle
    # agree with decomposing the shifted triangle afresh, and its ends and
    # maps, N[1] and M[1] taken from the carried certificates, are those
    # that shift builds afresh, each map negated

    field = FieldSpec.from_label(label_)
    reports = build_quiver(5, field).reports
    for i in range(1, 6):
        t = ar_triangle(i, field)
        s = shift_triangle(t)
        assert (s.n, s.e, s.m, s.f, s.g, s.h) == (
            shift(t.n), shift(t.e), shift(t.m),
            *(negate_map(oracles.shifted_map(u)) for u in (t.f, t.g, t.h)))
        derived, fresh = s.terms, with_terms(s).terms
        assert derived[0] == fresh[0]
        terms = (s.n, s.m, shift(s.n), shift(s.m))
        for c_derived, c_fresh, term in zip(derived[1], fresh[1], terms):
            assert c_derived.complex == c_fresh.complex == term
            assert c_derived.labels == c_fresh.labels
        assert reports[2 * i - 1] == verify_right_ar(s, bound=i + 3)


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
    from periodica import ChainMap2, Homotopy2
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
