"""Block-sum certificates and the closed forms of Hom and null-homotopy
that read them, checked against the Smith references: ``hom_module``
without certificates, and the Smith solve of ``oracles.py`` for
null-homotopy.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodica.artheory as artheory
import periodica.complexes as complexes
import periodica.smith as smith
from periodica import (
    BlockSumCertificate,
    ChainMap2,
    DimensionMismatchError,
    FieldSpec,
    Homotopy2,
    NotAComplexError,
    NotFiniteLengthError,
    RMatrix,
    TwoPeriodicComplex,
    compose,
    decompose,
    decomposition_certificate,
    direct_sum,
    hom_module,
    identity_map,
    is_null_homotopic,
    k_complex,
    label,
    model_certificate,
    negate_map,
    reduce,
    scale_map,
    serre_length_check,
    shift,
    shift_map,
    socle_map,
    x_power,
)
from periodica.classify import _block_sum_certificate, assemble
from periodica.errors import ValidationError
from periodica.minimal import TrivialType, trivial_complex
from periodica.rand import (
    conjugate_complex,
    random_element,
    random_finite_length_instance,
    random_multiset,
)

from oracles import smith_null_homotopy
from thelpers import add_maps, mat, random_complex, zero_map

FIELDS = ["Q", "Fp:3", "Fp:101"]
# random_finite_length_instance(Random(seed), ..., max_labels=2, max_j=3,
# max_trivials=2) draws both trivial types for seeds 10 and 34 (with
# labels K(1)[1] + K(3)[1] and K(1) + K(2)) and the rank-0 complex for 2
BOTH_TRIVIAL_TYPES = (10, 34)
RANK_ZERO = 2


def _instance(seed, field):
    x, _, trivials = random_finite_length_instance(
        Random(seed), field, max_labels=2, max_j=3, max_trivials=2)
    return x, trivials


def _certified(x):
    return decomposition_certificate(decompose(x))


def _agreed_null(f, certs):
    """Whether f is null-homotopic, the closed form on the given
    certificates, on its own classification and the Smith solve
    agreeing; every witness is re-checked."""
    answers = (is_null_homotopic(f, certs), is_null_homotopic(f),
               smith_null_homotopy(f))
    assert len({h is None for h in answers}) == 1
    for h in answers:
        assert h is None or h.witnesses(f)
    return answers[0] is not None


def test_example_seeds_draw_what_they_claim():
    for field in map(FieldSpec.from_label, FIELDS):
        for seed in BOTH_TRIVIAL_TYPES:
            x, (t1, t2) = _instance(seed, field)
            assert t1 >= 1 and t2 >= 1 and x.r0 > t1 + t2
        x, _ = _instance(RANK_ZERO, field)
        assert (x.r0, x.r1) == (0, 0)


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=10, deadline=None)
@given(sx=st.integers(0, 2**32 - 1), sy=st.integers(0, 2**32 - 1))
@example(sx=BOTH_TRIVIAL_TYPES[0], sy=BOTH_TRIVIAL_TYPES[1])
@example(sx=BOTH_TRIVIAL_TYPES[1], sy=RANK_ZERO)
@example(sx=RANK_ZERO, sy=BOTH_TRIVIAL_TYPES[0])
def test_closed_forms_match_smith_path(label_, sx, sy):
    field = FieldSpec.from_label(label_)
    (x, _), (y, _) = _instance(sx, field), _instance(sy, field)
    certs = (_certified(x), _certified(y))
    fast, slow = hom_module(x, y, certs), hom_module(x, y)
    assert fast.factors == slow.factors
    assert fast.free_rank == slow.free_rank == 0
    assert len(fast.generators) == len(fast.factors)
    for v, g in zip(fast.factors, fast.generators):
        assert isinstance(g, ChainMap2) and (g.src, g.dst) == (x, y)
        # exact order v, decided by the Smith solve
        assert smith_null_homotopy(_times_x(g, v - 1)) is None
        assert smith_null_homotopy(_times_x(g, v)) is not None
    # the closed-form decisions agree on maps from both paths
    for hm in (fast, slow):
        for v, g in zip(hm.factors, hm.generators):
            assert not _agreed_null(_times_x(g, v - 1), certs)
            assert _agreed_null(_times_x(g, v), certs)
        if hm.generators:
            _agreed_null(_sum(hm.generators), certs)
            assert not _agreed_null(_sum(
                [_times_x(g, v - 1) for v, g in zip(hm.factors, hm.generators)]),
                certs)
            assert _agreed_null(_sum(
                [_times_x(g, v) for v, g in zip(hm.factors, hm.generators)]),
                certs)


def _times_x(g, m):
    return scale_map(g, x_power(g.src.field, m))


def _sum(maps):
    total = maps[0]
    for g in maps[1:]:
        total = add_maps(total, g)
    return total


@pytest.mark.parametrize("label_", FIELDS)
@pytest.mark.parametrize("seed", [*BOTH_TRIVIAL_TYPES, RANK_ZERO, 7, 11])
def test_shifted_certificate_matches_decompose_of_shift(label_, seed):
    field = FieldSpec.from_label(label_)
    x, _ = _instance(seed, field)
    y, _ = _instance(seed + 1000, field)
    sx = shift(x)
    shifted, fresh = _certified(x).shifted(), _certified(sx)
    assert shifted.complex == sx
    assert sorted(shifted.labels) == sorted(fresh.labels)
    cy = _certified(y)
    for a, b in (((shifted, cy), (fresh, cy)), ((cy, shifted), (cy, fresh))):
        src, dst = a[0].complex, a[1].complex
        h1, h2 = hom_module(src, dst, a), hom_module(src, dst, b)
        assert h1.factors == h2.factors
        for v, g in zip(h2.factors, h2.generators):
            for m in (v - 1, v):
                f = _times_x(g, m)
                assert (is_null_homotopic(f, a) is None) == \
                    (is_null_homotopic(f, b) is None) == (m < v)


def _rechecked_map(f):
    """f rebuilt through the checked constructor."""
    return ChainMap2(f.src, f.dst, f.f0, f.f1)


def _rechecked(c):
    """c rebuilt through the checked constructors."""
    return BlockSumCertificate(c.labels, _rechecked_map(c.to_blocks),
                               _rechecked_map(c.from_blocks), c.contraction)


def _random_map(rng, x, y):
    """A random combination of the Smith-path generators of Hom(X, Y),
    each a checked chain map; the zero map when there are none."""
    f = zero_map(x, y)
    for g in hom_module(x, y).generators:
        f = add_maps(f, scale_map(g, random_element(rng, x.field, 2)))
    return f


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=15, deadline=None)
@given(ranks=st.tuples(*[st.integers(0, 3)] * 4),
       seed=st.integers(0, 2**32 - 1), sc=st.integers(0, 2**32 - 1))
@example(ranks=(2, 3, 3, 3), seed=1, sc=BOTH_TRIVIAL_TYPES[0])
@example(ranks=(3, 3, 1, 2), seed=2, sc=BOTH_TRIVIAL_TYPES[1])
@example(ranks=(0, 2, 3, 0), seed=3, sc=RANK_ZERO)
def test_derived_maps_and_certificates_pass_the_checked_constructors(
        label_, ranks, seed, sc):
    # the helpers build their results without the checks; every result
    # must pass them when built from its raw parts
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    x = random_complex(rng, field, *ranks[:2])
    y = random_complex(rng, field, *ranks[2:])
    f, g, e = _random_map(rng, x, y), _random_map(rng, x, y), \
        _random_map(rng, y, y)
    c = random_element(rng, field, 2)
    for h in (identity_map(x), zero_map(x, y), compose(e, f),
              add_maps(f, g), negate_map(f), scale_map(f, c), shift_map(f),
              shift_map(compose(e, negate_map(g))), compose(
                  shift_map(e), shift_map(add_maps(f, scale_map(g, c))))):
        assert _rechecked_map(h) == h
    z, _ = _instance(sc, field)
    dec = decompose(z)
    certs = [dec.certificate, decomposition_certificate(dec),
             model_certificate(dec.multiset.labels(), field),
             model_certificate([label(2, True), label(1)], field)]
    for cert in certs + [cert.shifted() for cert in certs] \
            + [certs[1].shifted().shifted()]:
        assert _rechecked(cert) == cert
    for m in (dec.minimal, reduce(x).minimal, reduce(y).minimal,
              shift(reduce(y).minimal)):
        s = reduce(m)
        assert s.minimal == m and s.type1 == s.type2 == 0
        assert _rechecked_map(s.into) == s.into == identity_map(m)
        assert _rechecked_map(s.back) == s.back


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=10, deadline=None)
@given(trivials=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       free=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       seed=st.integers(0, 2**32 - 1))
@example(trivials=(1, 1), free=(0, 0), seed=0)
@example(trivials=(2, 1), free=(1, 0), seed=1)
@example(trivials=(1, 2), free=(1, 1), seed=2)
@example(trivials=(0, 1), free=(0, 1), seed=3)
@example(trivials=(0, 0), free=(1, 0), seed=4)
def test_moved_certificate_passes_the_checked_constructors(
        label_, trivials, free, seed):
    # the certificate moved along a splitting with trivial summands, of
    # one type or both, is built without the checks, and so is the swept
    # certificate of a minimal input; each must pass them when built from
    # its raw parts, also with free summands, r0 != r1 or rank 0
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    parts = [assemble(random_multiset(rng, 2, 3), field),
             trivial_complex(TrivialType.TYPE1, trivials[0], field),
             trivial_complex(TrivialType.TYPE2, trivials[1], field),
             TwoPeriodicComplex(field, free[0], free[1],
                                RMatrix.zeros(field, free[1], free[0]),
                                RMatrix.zeros(field, free[0], free[1]))]
    x, _, _ = conjugate_complex(rng, direct_sum(*parts), max_val=2)
    certs = [_block_sum_certificate(x)]
    if free == (0, 0):
        certs.append(decomposition_certificate(decompose(x)))
    for cert in certs:
        assert cert.complex == x
        assert (cert.contraction is None) == (trivials == (0, 0))
        assert _rechecked(cert) == cert


@pytest.mark.parametrize("label_", FIELDS)
@pytest.mark.parametrize("seed", BOTH_TRIVIAL_TYPES)
def test_corrupted_certificates_are_rejected_when_built(label_, seed):
    field = FieldSpec.from_label(label_)
    x, _ = _instance(seed, field)
    good = _certified(x)
    p, q, h = good.to_blocks, good.from_blocks, good.contraction
    BlockSumCertificate(good.labels, p, q, h)  # the parts are sound
    (j, shifted), *rest = good.labels
    for labels in ([(j + 1, shifted), *rest], [(j, not shifted), *rest]):
        with pytest.raises(ValidationError):
            BlockSumCertificate(tuple(labels), p, q, h)
    two = x_power(field, 0) + x_power(field, 0)
    with pytest.raises(ValidationError):  # P Q = 2 I: not an inverse
        BlockSumCertificate(good.labels, scale_map(p, two), q, h)
    with pytest.raises(ValidationError):  # Q P is not the identity
        BlockSumCertificate(good.labels, p, q, None)
    with pytest.raises(ValidationError):
        BlockSumCertificate(good.labels, p, q,
                            Homotopy2(x, x, -h.s0, h.s1))


def test_model_certificate_rejects_wrong_parts():
    field = FieldSpec.rationals()
    good = model_certificate([label(2)], field)
    p, q = good.to_blocks, good.from_blocks
    for labels in ([(3, False)], [(2, True)], [], [(2, False), (1, False)]):
        with pytest.raises(ValidationError):
            BlockSumCertificate(tuple(labels), p, q)
    # no contraction, so only P Q = I can reject P = 2 id
    two = x_power(field, 0) + x_power(field, 0)
    with pytest.raises(ValidationError):
        BlockSumCertificate(good.labels, scale_map(p, two), q)


def test_certified_factors_are_sorted_as_on_the_smith_path():
    # label pairs in block order give factors (3, 1, 2, 1) here
    field = FieldSpec.from_label("Fp:101")
    cx = model_certificate([label(3), label(2, True)], field)
    cy = model_certificate([label(3), label(1, True)], field)
    x, y = cx.complex, cy.complex
    fast = hom_module(x, y, (cx, cy))
    assert fast.factors == hom_module(x, y).factors == (1, 1, 2, 3)
    for v, g in zip(fast.factors, fast.generators):
        assert smith_null_homotopy(_times_x(g, v - 1)) is None


def test_certificates_must_belong_to_the_endpoints():
    field = FieldSpec.rationals()
    c2 = model_certificate([label(2)], field)
    c3 = model_certificate([label(3)], field)
    with pytest.raises(DimensionMismatchError):
        hom_module(c2.complex, c3.complex, (c3, c2))
    f = hom_module(c2.complex, c3.complex, (c2, c3)).generators[0]
    with pytest.raises(DimensionMismatchError):
        is_null_homotopic(f, (c2, c2))


@pytest.mark.parametrize("label_", FIELDS)
def test_socle_map_is_the_smith_path_generator(label_):
    # the ar-triangle connecting map is (0, x^(i-1)) on both paths
    field = FieldSpec.from_label(label_)
    for i in range(1, 9):
        k = k_complex(i, field)
        smith_gen = hom_module(k, shift(k)).generators[0]
        w = socle_map(i, field)
        assert w == scale_map(smith_gen, x_power(field, i - 1))
        assert w.f0.is_zero() and w.f1.at(0, 0) == x_power(field, i - 1)


def _forbid_smith_hom(monkeypatch):
    def refuse(x, y):
        raise AssertionError("the Smith path of hom_module was taken")
    monkeypatch.setattr(complexes, "homc", refuse)


def test_serre_check_decomposes_each_side_once(monkeypatch):
    field = FieldSpec.from_label("Fp:101")
    x, _ = _instance(BOTH_TRIVIAL_TYPES[0], field)
    y, _ = _instance(BOTH_TRIVIAL_TYPES[1], field)
    calls = []
    real = artheory.decompose
    monkeypatch.setattr(artheory, "decompose",
                        lambda z: calls.append(z) or real(z))
    _forbid_smith_hom(monkeypatch)
    assert serre_length_check(x, y)
    assert calls == [x, y]


def test_serre_check_keeps_its_finite_length_message():
    field = FieldSpec.rationals()
    free = TwoPeriodicComplex(field, 1, 1, RMatrix.zeros(field, 1, 1),
                              RMatrix.zeros(field, 1, 1))
    for a, b in ((free, k_complex(1, field)), (k_complex(1, field), free)):
        with pytest.raises(NotFiniteLengthError) as exc:
            serre_length_check(a, b)
        assert str(exc.value) == "Serre duality check needs finite length"


def test_ar_verify_takes_no_smith_path_hom(monkeypatch, capsys):
    from periodica.cli import main

    _forbid_smith_hom(monkeypatch)
    assert main(["ar-verify", "--i", "3", "--format", "json"]) == 0
    assert '"passed": true' in capsys.readouterr().out


def _count_smith_forms(monkeypatch):
    calls = []
    real = smith.smith_normal_form

    def counting(a):
        calls.append(a)
        return real(a)

    import periodica
    for mod in vars(periodica).values():
        if getattr(mod, "smith_normal_form", None) is real:
            monkeypatch.setattr(mod, "smith_normal_form", counting)
    return calls


def test_decompose_checks_the_complex_before_any_smith_form(monkeypatch):
    # the check is the constructor's, which forms no Smith form
    field = FieldSpec.rationals()
    d = mat(field, 2, 2, [["1", "0"], ["0", "0"]])
    calls = _count_smith_forms(monkeypatch)
    with pytest.raises(NotAComplexError) as exc:
        TwoPeriodicComplex(field, 2, 2, d, d)
    assert str(exc.value) == "d1*d0 has nonzero entry at (0, 0)"
    assert calls == []


def test_cli_cohomology_forms_each_composite_once(monkeypatch, capsys):
    from pathlib import Path

    # each composite is checked once, by the constructor, a row at a
    # time: neither is ever formed as a matrix
    from periodica import complexes, serialize
    from periodica.cli import _load_json, main

    path = str(Path(__file__).parent / "golden" / "q_rank5.json")
    x = serialize.parse_complex_doc(_load_json(path))
    products, checks = [], []
    real_matmul = RMatrix.__matmul__
    real_check = complexes.product_first_nonzero

    def recording(a, b):
        products.append((a.entries, b.entries))
        return real_matmul(a, b)

    def checking(a, b):
        checks.append((a.entries, b.entries))
        return real_check(a, b)

    monkeypatch.setattr(RMatrix, "__matmul__", recording)
    monkeypatch.setattr(complexes, "product_first_nonzero", checking)
    assert main(["cohomology", path]) == 0
    assert "H0 = " in capsys.readouterr().out
    assert checks == [(x.d1.entries, x.d0.entries),
                      (x.d0.entries, x.d1.entries)]
    assert (x.d1.entries, x.d0.entries) not in products
    assert (x.d0.entries, x.d1.entries) not in products


@pytest.mark.parametrize("name", ["q_rank5", "q_tensor_lhs", "f101_free"])
def test_cli_cohomology_takes_one_smith_form_per_differential(
        name, monkeypatch, capsys):
    # the exponents of d0 and d1 are the whole answer, free parts too
    from pathlib import Path

    from periodica import serialize
    from periodica.cli import _load_json, main

    path = str(Path(__file__).parent / "golden" / f"{name}.json")
    doc = _load_json(path)
    x = serialize.parse_complex_doc(doc, FieldSpec.from_label(doc["field"]))
    calls = _count_smith_forms(monkeypatch)
    assert main(["cohomology", path, "--field", doc["field"]]) == 0
    assert "H0 = " in capsys.readouterr().out
    assert [a.entries for a in calls] == [x.d0.entries, x.d1.entries]
