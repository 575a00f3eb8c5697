"""``is_null_homotopic`` without certificates classifies both ends, free
summands R and R[1] included, and reads its answer off the block-sum
certificates.  Its decisions are compared with the Smith solve of
``oracles.py`` and every witness is re-checked.  Every entry of the
label-pair table of ``models`` is checked at the chain-map level.
"""

import math
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
    direct_sum,
    hom_module,
    is_null_homotopic,
    scale_map,
    shift,
    x_power,
)
from periodica.classify import _block_sum_certificate, label
from periodica.complexes import _model_sum
from periodica.localring import one, x_shift, zero
from periodica.minimal import TrivialType, trivial_complex
from periodica.models import entry
from periodica.rand import conjugate_complex, random_element, random_matrix

from oracles import hom_length_kk, smith_null_homotopy
from thelpers import (
    add_maps,
    model_complex,
    random_complex,
    random_unit,
    zero_complex,
    zero_map,
)

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


ranks = st.tuples(st.integers(0, 3), st.integers(0, 3))


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rx=ranks, ry=ranks, same=st.booleans())
# free summands at both ends with r0 != r1, and Hom(X, X)
@example(seed=1, rx=(3, 1), ry=(1, 3), same=False)
@example(seed=2, rx=(3, 2), ry=(0, 0), same=True)
def test_closed_form_hom_matches_the_smith_route(label_, seed, rx, ry, same):
    # certificates with free labels R and R[1]: the same factors and free
    # rank as the Smith route, and generators that are chain maps of the
    # right order, x^v g null and x^(v-1) g not, none for a free one
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    x = random_complex(rng, field, *rx)
    y = x if same else random_complex(rng, field, *ry)
    cx = _block_sum_certificate(x)
    cy = cx if same else _block_sum_certificate(y)
    hm = hom_module(x, y, (cx, cy))
    smith = hom_module(x, y)
    assert (hm.factors, hm.free_rank) == (smith.factors, smith.free_rank)
    assert len(hm.generators) == len(hm.factors) + hm.free_rank
    for k, g in enumerate(hm.generators):
        assert ChainMap2(x, y, g.f0, g.f1) == g
        if k < len(hm.factors):
            v = hm.factors[k]
            assert _decided(scale_map(g, x_power(field, v)))
            assert not _decided(scale_map(g, x_power(field, v - 1)))
        else:
            for m in range(3):
                assert not _decided(scale_map(g, x_power(field, m)))


def _block(field, lab):
    """The model complex of one (j, shifted) label and its identity
    certificate, both through the checked constructors."""
    x = _model_sum(field, [lab])
    x = TwoPeriodicComplex(field, x.r0, x.r1, x.d0, x.d1)
    ident = ChainMap2(x, x, RMatrix.identity(field, x.r0),
                      RMatrix.identity(field, x.r1))
    return x, BlockSumCertificate((lab,), ident, ident)


def _blockwise(cls, x, y, parts, shapes):
    """``cls`` from x to y with the components ``parts``, each a ring
    element or 0, on blocks of at most 1 x 1 of the given shapes."""
    z = zero(x.field)
    return cls(x, y, *(RMatrix(x.field, r, c, (p or z,) * (r * c))
                       for p, (r, c) in zip(parts, shapes)))


labels = st.tuples(st.integers(0, 12), st.booleans())


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=40, deadline=None)
@given(a=labels, b=labels, m=st.integers(0, 14), seed=st.integers(0, 99))
# every pair of free labels, and each free label against a model
@example(a=(0, False), b=(0, False), m=0, seed=0)
@example(a=(0, False), b=(0, True), m=0, seed=0)
@example(a=(0, True), b=(0, False), m=0, seed=0)
@example(a=(0, True), b=(0, True), m=0, seed=0)
@example(a=(0, False), b=(4, False), m=4, seed=1)
@example(a=(0, True), b=(4, True), m=3, seed=2)
@example(a=(0, False), b=(4, True), m=3, seed=2)
@example(a=(0, True), b=(4, False), m=3, seed=2)
@example(a=(5, False), b=(0, True), m=5, seed=3)
@example(a=(5, True), b=(0, False), m=4, seed=4)
@example(a=(5, False), b=(0, False), m=4, seed=4)
@example(a=(5, True), b=(0, True), m=4, seed=4)
@example(a=(12, False), b=(7, True), m=7, seed=5)
@example(a=(3, True), b=(12, False), m=2, seed=6)
@example(a=(2, False), b=(9, False), m=2, seed=7)
@example(a=(9, True), b=(2, True), m=1, seed=8)
def test_every_table_entry_at_the_chain_map_level(label_, a, b, m, seed):
    # the models entry of a -> b: g is a chain map generating Hom, s
    # witnesses x^v g, and the null decision on r g and its witness
    # (r/x^v) s agree with the Smith solve of the oracles
    field = FieldSpec.from_label(label_)
    x, cx = _block(field, a)
    y, cy = _block(field, b)
    e = entry(a, b)
    smith = hom_module(x, y)
    if e is None:
        # every chain map a -> b is zero
        assert (smith.factors, smith.free_rank) == ((), 0)
        assert all(g.is_zero() for g in smith.generators)
        return
    v, gen, h = e
    if a[0] and b[0]:
        assert v == hom_length_kk(a[0], b[0], a[1] != b[1])
    assert (smith.factors, smith.free_rank) == (
        ((), 1) if v == math.inf else ((v,), 0))
    g = _blockwise(ChainMap2, x, y, [
        None if k is None else x_power(field, k) for k in gen],
        [(y.r0, x.r0), (y.r1, x.r1)])
    # g has order x^v in Hom = R/x^v, or none in a free Hom: it generates
    assert smith_null_homotopy(g if v == math.inf else scale_map(
        g, x_power(field, v - 1))) is None

    def standard(q):
        """q times the standard homotopy, whose one component is
        s_h = (-1)^h."""
        return _blockwise(Homotopy2, x, y, [q, None] if h == 0 else
                          [None, -q], [(y.r1, x.r0), (y.r0, x.r1)])

    xv = zero(field) if v == math.inf else x_power(field, v)
    assert standard(one(field)).witnesses(scale_map(g, xv))
    # r g for r = unit * x^m, and 0
    rng = Random(seed)
    for r in (random_unit(rng, field) * x_power(field, m), zero(field)):
        c = scale_map(g, r)
        fast = is_null_homotopic(c, (cx, cy))
        slow = smith_null_homotopy(c)
        assert (fast is None) == (slow is None) == (bool(r) and m < v)
        if fast is not None:
            assert slow.witnesses(c)
            assert fast == standard(x_shift(r, -v) if r else zero(field))
