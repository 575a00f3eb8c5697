"""``is_null_homotopic`` without certificates classifies both ends, free
summands R and R[1] included, and reads its answer off the block-sum
certificates.  Its decisions are compared with the Smith solve of
``oracles.py`` and every witness is re-checked.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodica import (
    BlockSumCertificate,
    ChainMap2,
    FieldSpec,
    Homotopy2,
    RMatrix,
    TwoPeriodicComplex,
    ValidationError,
    add_maps,
    direct_sum,
    hom_module,
    is_null_homotopic,
    scale_map,
    shift,
    x_power,
    zero_complex,
    zero_map,
)
from periodica.classify import _block_sum_certificate, label, model_complex
from periodica.minimal import TrivialType, trivial_complex
from periodica.rand import conjugate_complex, random_element, random_matrix

from oracles import smith_null_homotopy

FIELDS = ["Q", "Fp:3", "Fp:101"]
KINDS = ("K", "K[1]", "R", "R[1]", "T1", "T2")


def _free(field, shifted=False):
    """R (ranks (1, 0)), or R[1] (ranks (0, 1)) when shifted."""
    r0, r1 = (0, 1) if shifted else (1, 0)
    return TwoPeriodicComplex(field, r0, r1, RMatrix.zeros(field, r1, r0),
                              RMatrix.zeros(field, r0, r1))


def _part(field, kind, j):
    if kind in ("R", "R[1]"):
        return _free(field, kind == "R[1]")
    if kind in ("T1", "T2"):
        return trivial_complex(TrivialType(int(kind[1])), 1, field)
    return model_complex(label(j, kind == "K[1]"), field)


def _conjugated_sum(rng, field, parts):
    x = direct_sum(*[_part(field, k, j) for k, j in parts]) if parts \
        else zero_complex(field)
    return conjugate_complex(rng, x, max_val=2)[0]


def _decided(f):
    """Whether f is null-homotopic, the closed form and the Smith solve
    agreeing; both witnesses are re-checked."""
    fast, slow = is_null_homotopic(f), smith_null_homotopy(f)
    assert (fast is None) == (slow is None)
    for h in (fast, slow):
        assert h is None or h.witnesses(f)
    return fast is not None


parts = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(1, 3)),
                 max_size=4)


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=12, deadline=None)
@given(px=parts, py=parts, seed=st.integers(0, 2**32 - 1),
       same=st.booleans())
# free summands of both kinds, r0 != r1, both trivial types on each side
@example(px=[("R", 1), ("K", 2), ("T1", 1)],
         py=[("R[1]", 1), ("K[1]", 3), ("T2", 1), ("R[1]", 1)],
         seed=1, same=False)
@example(px=[("K[1]", 2), ("R", 1), ("T2", 1), ("R[1]", 1)],
         py=[("K", 1), ("R", 1), ("T1", 1)], seed=2, same=False)
@example(px=[("R", 1), ("K", 2), ("T1", 1), ("T2", 1)], py=[],
         seed=3, same=True)
def test_null_decisions_match_the_smith_solve(label_, px, py, seed, same):
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    x = _conjugated_sum(rng, field, px)
    y = x if same else _conjugated_sum(rng, field, py)
    hm = hom_module(x, y)
    gens = hm.generators
    # each torsion generator has exact order x^v; free ones have none
    for k, g in enumerate(gens):
        if k < len(hm.factors):
            v = hm.factors[k]
            assert not _decided(scale_map(g, x_power(field, v - 1)))
            assert _decided(scale_map(g, x_power(field, v)))
        else:
            assert not _decided(g)
            assert not _decided(scale_map(g, x_power(field, 3)))
    # random combinations, with and without a boundary added
    b0, b1 = Homotopy2(x, y, random_matrix(rng, field, y.r1, x.r0, max_val=2),
                       random_matrix(rng, field, y.r0, x.r1,
                                     max_val=2)).boundary()
    boundary = ChainMap2(x, y, b0, b1)
    assert _decided(boundary)
    f = zero_map(x, y)
    for g in gens:
        f = add_maps(f, scale_map(g, random_element(rng, field, 2)))
    assert _decided(f) == _decided(add_maps(f, boundary))


def _objects(field):
    return {"R": _free(field), "R[1]": _free(field, True),
            "K(2)": model_complex(label(2), field),
            "K(3)": model_complex(label(3), field),
            "K(2)[1]": model_complex(label(2, True), field),
            "K(3)[1]": model_complex(label(3, True), field)}


# (source, target) -> (Hom as (factors, free rank), the component that
# carries the generator); every other pair with a free end has Hom = 0
FREE_PAIRS = {
    ("R", "R"): (((), 1), "f0"),
    ("R[1]", "R[1]"): (((), 1), "f1"),
    ("R", "K(2)"): (((2,), 0), "f0"),
    ("R", "K(3)"): (((3,), 0), "f0"),
    ("R[1]", "K(2)[1]"): (((2,), 0), "f1"),
    ("R[1]", "K(3)[1]"): (((3,), 0), "f1"),
    ("K(2)", "R[1]"): (((2,), 0), "f1"),
    ("K(3)", "R[1]"): (((3,), 0), "f1"),
    ("K(2)[1]", "R"): (((2,), 0), "f0"),
    ("K(3)[1]", "R"): (((3,), 0), "f0"),
}


@pytest.mark.parametrize("label_", FIELDS)
def test_free_pairs(label_):
    field = FieldSpec.from_label(label_)
    objs = _objects(field)
    pairs = [(a, b) for a in objs for b in objs
             if "R" in (a, b) or "R[1]" in (a, b)]
    seen = set()
    for a, b in pairs:
        x, y = objs[a], objs[b]
        hm = hom_module(x, y)
        # the zero map is null-homotopic on both routes
        assert _decided(zero_map(x, y))
        if (a, b) not in FREE_PAIRS:
            assert (hm.factors, hm.free_rank) == ((), 0), (a, b)
            continue
        seen.add((a, b))
        (hom, comp) = FREE_PAIRS[(a, b)]
        assert (hm.factors, hm.free_rank) == hom, (a, b)
        g = hm.generators[0]
        other = "f1" if comp == "f0" else "f0"
        assert getattr(g, other).is_zero() and not getattr(g, comp).is_zero()
        bound = hom[0][0] if hom[0] else None
        for m in range(4):
            f = scale_map(g, x_power(field, m))
            # null iff the one component has valuation >= the bound;
            # never for a free Hom
            assert _decided(f) == (bound is not None and m >= bound), (a, b, m)
    assert seen == set(FREE_PAIRS)


@pytest.mark.parametrize("label_", FIELDS)
def test_free_certificates_pass_the_checked_constructors(label_):
    field = FieldSpec.from_label(label_)
    rng = Random(5)
    for px in ([("R", 1), ("K", 2), ("T1", 1), ("R[1]", 1), ("R[1]", 1)],
               [("T2", 1), ("K[1]", 1), ("R", 1)], [("R[1]", 1)]):
        x = _conjugated_sum(rng, field, px)
        c = _block_sum_certificate(x)
        assert c.complex == x
        assert sorted(c.labels) == sorted(
            (0 if k in ("R", "R[1]") else j, k.endswith("[1]"))
            for k, j in px if k not in ("T1", "T2"))
        for cert in (c, c.shifted()):
            p, q = cert.to_blocks, cert.from_blocks
            rebuilt = BlockSumCertificate(
                cert.labels, ChainMap2(p.src, p.dst, p.f0, p.f1),
                ChainMap2(q.src, q.dst, q.f0, q.f1), cert.contraction)
            assert rebuilt == cert
        assert c.shifted().complex == shift(x)


def test_closed_form_hom_refuses_free_blocks():
    field = FieldSpec.rationals()
    x = direct_sum(_free(field), model_complex(label(2), field))
    c = _block_sum_certificate(x)
    with pytest.raises(ValidationError):
        hom_module(x, x, (c, c))
