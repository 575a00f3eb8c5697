"""Shift, dual, sums, tensor, Hom, the comparison isomorphism, cones,
cohomology, null-homotopy decisions, and Hom-modules."""

import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import is_invertible, kron, shifted_map
from thelpers import (
    first_nonzero,
    mat,
    random_complex,
    random_unit,
    rechecked_complex,
    zero_complex,
    zero_map,
)

from periodica import (
    ChainMap2,
    DimensionMismatchError,
    FieldMismatchError,
    FieldSpec,
    InvalidChainMapError,
    NotAComplexError,
    RMatrix,
    SizeLimitError,
    TwoPeriodicComplex,
    cohomology,
    compose,
    cone,
    delta_iso,
    direct_sum,
    dual,
    hom_module,
    homc,
    identity_map,
    inverse,
    is_null_homotopic,
    k_complex,
    one,
    scale_map,
    shift,
    shift_map,
    tensor2,
    x_power,
)
from periodica.classify import decompose, label, IndecompMultiset
from periodica import complexes
from periodica.complexes import MAX_HOM_ENTRIES, _homc_blocks
from periodica.matrix import block, product_first_nonzero
from periodica.minimal import TrivialType, reduce, trivial_complex
from periodica.rand import (
    conjugate_complex,
    random_finite_length_instance,
    random_matrix,
)
from periodica.serialize import parse_complex_doc
from periodica.smith import smith_normal_form

Q = FieldSpec.rationals()


def K(j, field=Q):
    return k_complex(j, field)


# -- validation -----------------------------------------------------------------

def test_validate_k2():
    assert rechecked_complex(K(2)) == K(2)


def test_validate_detects_nonzero_composite():
    # the constructor checks d1 d0 first, then d0 d1, and names the first
    # nonzero entry in row-major order
    one_ = mat(Q, 1, 1, [["1"]])
    for d0, d1, message in (
            (one_, one_, "d1*d0 has nonzero entry at (0, 0)"),
            (mat(Q, 2, 1, [["1"], ["0"]]), mat(Q, 1, 2, [["0", "x"]]),
             "d0*d1 has nonzero entry at (0, 1)")):
        with pytest.raises(NotAComplexError) as exc:
            TwoPeriodicComplex(Q, d0.cols, d0.rows, d0, d1)
        assert str(exc.value) == message


@pytest.mark.parametrize("label", ["Q", "Fp:3"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 5),
       k=st.integers(0, 5), m=st.integers(0, 5),
       zero_bias=st.sampled_from([0.3, 0.7, 0.95]))
def test_product_first_nonzero_matches_the_product(label, seed, n, k, m,
                                                   zero_bias):
    field = FieldSpec.from_label(label)
    rng = random.Random(seed)
    a = random_matrix(rng, field, n, k, max_val=2, zero_bias=zero_bias)
    b = random_matrix(rng, field, k, m, max_val=2, zero_bias=zero_bias)
    if rng.random() < 0.5:  # columns in the kernel of a: a @ b = 0
        s = smith_normal_form(a)
        b = s.v.take_cols(range(s.rank, k)) @ random_matrix(
            rng, field, k - s.rank, m, max_val=2)
    assert product_first_nonzero(a, b) == first_nonzero(a @ b)


def test_validate_lopsided_zero_document():
    # ranks (1, 4000): d0 d1 is 4000 x 4000, but the check forms no
    # product, so time and memory stay linear in the 8000 entries
    n = 4000
    doc = {"field": "Q", "r0": 1, "r1": n, "d0": [["0"]] * n,
           "d1": [["0"] * n]}
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        x = parse_complex_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 2
    assert peak < 2**20
    assert (x.r0, x.r1) == (1, n)


def test_validate_zero_complex():
    assert rechecked_complex(zero_complex(Q)) == zero_complex(Q)


# -- shift -----------------------------------------------------------------------

def test_shift_k1():
    s = shift(K(1))
    assert s.d0 == mat(Q, 1, 1, [["-x"]])
    assert s.d1 == mat(Q, 1, 1, [["0"]])
    assert (s.r0, s.r1) == (1, 1)


def test_shift_involution():
    assert shift(shift(K(3))) == K(3)
    assert shift(zero_complex(Q)) == zero_complex(Q)


# -- dual ------------------------------------------------------------------------

def test_dual_of_k_is_shift():
    for j in (1, 2, 5):
        assert decompose(dual(K(j))).multiset == \
            IndecompMultiset.from_labels([label(j, True)])


def test_dual_double_dual_by_multiset(rng):
    x = direct_sum(K(2), shift(K(3)))
    y, _, _ = conjugate_complex(rng, x)
    assert decompose(dual(dual(y))).multiset == decompose(y).multiset


def test_dual_zero():
    assert dual(zero_complex(Q)) == zero_complex(Q)


# -- direct sum -------------------------------------------------------------------

def test_direct_sum_blocks():
    s = direct_sum(K(1), K(2))
    assert s.d1 == mat(Q, 2, 2, [["x", "0"], ["0", "x^2"]])
    assert s.d0.is_zero()


def test_direct_sum_with_zero():
    assert direct_sum(K(2), zero_complex(Q)) == K(2)


def test_direct_sum_cohomology():
    h0, h1 = cohomology(direct_sum(K(1), K(2)))
    assert h0.factors == (1, 2) and h1.factors == ()


def test_direct_sum_field_mismatch():
    with pytest.raises(FieldMismatchError):
        direct_sum(K(1), k_complex(1, FieldSpec.prime_field(5)))


def test_zero_map_field_mismatch():
    # the checked constructor that zero_map goes through refuses it
    with pytest.raises(FieldMismatchError):
        zero_map(K(1), k_complex(1, FieldSpec.prime_field(5)))


# -- tensor ------------------------------------------------------------------------

def test_tensor_unit_object():
    unit = _zeros(1, 0)
    t = tensor2(K(3), unit)
    assert (t.r0, t.r1) == (1, 1)
    assert t.d1 == K(3).d1 and t.d0 == K(3).d0


def test_tensor_shape_and_validity():
    t = tensor2(K(1), K(1))
    assert (t.r0, t.r1) == (2, 2)
    assert rechecked_complex(t) == t


def test_tensor_k1_k2_cohomology_lengths():
    # brute-force subquotient computation on the 2x2 blocks; the tensor
    # splits as K(1) + K(1)[1], so both lengths are 1 = min(1, 2)
    t = tensor2(K(1), K(2))
    h0, h1 = cohomology(t)
    assert (h0.factors, h0.free_rank) == ((1,), 0)
    assert (h1.factors, h1.free_rank) == ((1,), 0)
    assert decompose(t).multiset == \
        IndecompMultiset.from_labels([label(1, False), label(1, True)])


def test_tensor_lengths_match_min_rule(rng):
    for i, j in ((1, 1), (2, 3), (3, 2)):
        t = tensor2(K(i), K(j))
        h0, h1 = cohomology(t)
        assert (h0.free_rank, h1.free_rank) == (0, 0)
        assert sum(h0.factors) == min(i, j)
        assert sum(h1.factors) == min(i, j)


# -- Hom complex ---------------------------------------------------------------------

def test_homc_end_k1():
    h = homc(K(1), K(1))
    h0, _ = cohomology(h)
    assert h0.factors == (1,)


def test_homc_from_rank_10_source():
    x = _zeros(1, 0)
    y = direct_sum(K(2), shift(K(1)))
    h = homc(x, y)
    assert rechecked_complex(h) == h
    assert (h.r0, h.r1) == (y.r0, y.r1)


def _zeros(r0, r1, field=Q):
    return TwoPeriodicComplex(field, r0, r1, RMatrix.zeros(field, r1, r0),
                              RMatrix.zeros(field, r0, r1))


@pytest.mark.parametrize("op", ["homc", "tensor2", "hom_module"])
def test_hom_size_limit_raises_before_allocating(op):
    # ranks (60, 60): each Hom differential would be 7200 x 7200
    x = _zeros(60, 60)
    call = {"homc": lambda: homc(x, x), "tensor2": lambda: tensor2(x, x),
            "hom_module": lambda: hom_module(x, x)}[op]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(SizeLimitError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 10
    assert peak < 4 * 2**20
    assert str(exc.value) == (
        "Hom-complex differential of 7200 x 7200 = 51840000 entries "
        f"exceeds the limit of {MAX_HOM_ENTRIES}")


def test_null_homotopy_of_large_zero_map_builds_no_hom_complex():
    # the null test classifies X (60 copies each of R and R[1]) and
    # builds no Hom complex, so the size budget does not apply
    x = _zeros(60, 60)
    f = zero_map(x, x)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        h = is_null_homotopic(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 10
    assert peak < 4 * 2**20
    assert h is not None and h.witnesses(f)


def test_homc_h0_spec_value():
    h = homc(K(2), K(3))
    assert cohomology(h)[0].factors == (2,)


def _homc_blocks_by_kron(x, y):
    """Reference: the Hom-complex differentials as Kronecker products of
    identities with d_Y and d_X^T, assembled blockwise."""
    field = x.field
    i_x0 = RMatrix.identity(field, x.r0)
    i_x1 = RMatrix.identity(field, x.r1)
    i_y0 = RMatrix.identity(field, y.r0)
    i_y1 = RMatrix.identity(field, y.r1)
    d0 = block(field, [
        [kron(i_x0, y.d0), -kron(x.d0.transpose(), i_y1)],
        [-kron(x.d1.transpose(), i_y0), kron(i_x1, y.d1)],
    ])
    d1 = block(field, [
        [kron(i_x0, y.d1), kron(x.d0.transpose(), i_y0)],
        [kron(x.d1.transpose(), i_y1), kron(i_x1, y.d0)],
    ])
    return d0, d1


def _random_pair(rng, field, r0, r1):
    """Differentials of the given ranks, entries with denominators mixed
    in, in an attribute holder: the assembly formula is linear, so they
    need not compose to 0, which no TwoPeriodicComplex allows."""
    def grid(rows, cols):
        m = random_matrix(rng, field, rows, cols, max_val=2)
        return RMatrix(field, rows, cols, tuple(
            e * inverse(random_unit(rng, field)) if rng.random() < 0.3 else e
            for e in m.entries))
    return SimpleNamespace(field=field, r0=r0, r1=r1, d0=grid(r1, r0),
                           d1=grid(r0, r1))


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=40, deadline=None)
@given(ranks=st.tuples(*[st.integers(0, 3)] * 4),
       seed=st.integers(0, 2**32 - 1))
@example(ranks=(0, 2, 3, 0), seed=1)
@example(ranks=(2, 1, 1, 3), seed=2)
@example(ranks=(0, 0, 2, 2), seed=3)
def test_homc_blocks_match_kron_formula(label_, ranks, seed):
    field = FieldSpec.from_label(label_)
    rng = random.Random(seed)
    x = _random_pair(rng, field, *ranks[:2])
    y = _random_pair(rng, field, *ranks[2:])
    assert _homc_blocks(x, y) == _homc_blocks_by_kron(x, y)


def _tensor_by_kron(x, y):
    """Reference: the tensor differentials as Kronecker products of
    identities with the differentials, assembled blockwise."""
    field = x.field
    i_x0 = RMatrix.identity(field, x.r0)
    i_x1 = RMatrix.identity(field, x.r1)
    i_y0 = RMatrix.identity(field, y.r0)
    i_y1 = RMatrix.identity(field, y.r1)
    # degree 0: (X0 (x) Y0) + (X1 (x) Y1); degree 1: (X0 (x) Y1) + (X1 (x) Y0)
    d0 = block(field, [
        [kron(i_x0, y.d0), kron(x.d1, i_y1)],
        [kron(x.d0, i_y0), -kron(i_x1, y.d1)],
    ])
    d1 = block(field, [
        [kron(i_x0, y.d1), kron(x.d1, i_y0)],
        [kron(x.d0, i_y1), -kron(i_x1, y.d0)],
    ])
    return d0, d1


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=30, deadline=None)
@given(ranks=st.tuples(*[st.integers(0, 3)] * 4),
       seed=st.integers(0, 2**32 - 1))
@example(ranks=(0, 2, 3, 0), seed=1)
@example(ranks=(2, 1, 1, 3), seed=2)
@example(ranks=(0, 0, 2, 2), seed=3)
def test_tensor_matches_kron_formula(label_, ranks, seed):
    field = FieldSpec.from_label(label_)
    rng = random.Random(seed)
    x = random_complex(rng, field, *ranks[:2])
    y = random_complex(rng, field, *ranks[2:])
    t = tensor2(x, y)
    assert (t.d0, t.d1) == _tensor_by_kron(x, y)


def test_hom_module_rejects_non_complex():
    # d1 d0 = d0 d1 = diag(1, 0) != 0, so Hom(X, X) would be no complex
    # either; the constructor rejects X before any Hom is formed
    d = mat(Q, 2, 2, [["1", "0"], ["0", "0"]])
    with pytest.raises(NotAComplexError) as exc:
        TwoPeriodicComplex(Q, 2, 2, d, d)
    assert str(exc.value) == "d1*d0 has nonzero entry at (0, 0)"


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=30, deadline=None)
@given(ranks=st.tuples(*[st.integers(0, 3)] * 4),
       seed=st.integers(0, 2**32 - 1))
@example(ranks=(3, 3, 3, 3), seed=4)
@example(ranks=(0, 2, 3, 0), seed=5)
@example(ranks=(0, 0, 2, 1), seed=6)
def test_derived_complexes_pass_the_checked_constructor(label_, ranks, seed):
    # the constructions built without the constructor's check give
    # complexes from complexes: each passes it when built from its parts
    field = FieldSpec.from_label(label_)
    rng = random.Random(seed)
    x = random_complex(rng, field, *ranks[:2])
    y = random_complex(rng, field, *ranks[2:])
    labels = [(rng.randint(1, 3), rng.random() < 0.5)
              for _ in range(rng.randint(0, 3))]
    split = reduce(x)
    for z in (shift(x), dual(y), direct_sum(x, y), direct_sum(y),
              homc(x, y), homc(y, y), tensor2(x, y), tensor2(y, y),
              complexes._model_sum(field, labels),
              trivial_complex(TrivialType.TYPE1, ranks[0], field),
              trivial_complex(TrivialType.TYPE2, ranks[1], field),
              split.minimal, reduce(shift(y)).minimal):
        assert rechecked_complex(z) == z


def test_operands_that_are_no_complex_are_rejected():
    # X: d0 = d1 = 1 and Y: d0 = 1, d1 = -1, rank (1, 1).  d^2 of
    # Hom(X, X) would be d_X^2 f - f d_X^2 = 0 and d^2 of X (x) Y would be
    # d_X^2 (x) 1 + 1 (x) d_Y^2 = 0, so only the constructor's check of
    # the operands themselves rejects them
    m = mat(Q, 1, 1, [["1"]])
    for d1 in (m, -m):
        with pytest.raises(NotAComplexError) as exc:
            TwoPeriodicComplex(Q, 1, 1, m, d1)
        assert str(exc.value) == "d1*d0 has nonzero entry at (0, 0)"


def test_shared_operand_is_validated_once(monkeypatch):
    # X and Y are checked once each, when they are built; homc, tensor2
    # and the null test check neither again
    calls = []
    real = TwoPeriodicComplex.__post_init__
    monkeypatch.setattr(TwoPeriodicComplex, "__post_init__",
                        lambda x: calls.append(x) or real(x))
    x = rechecked_complex(direct_sum(K(1), shift(K(2))))
    y = rechecked_complex(direct_sum(K(1), shift(K(2))))
    assert calls == [x, y]
    f = scale_map(identity_map(x), x_power(Q, 1))
    g = ChainMap2(x, y, f.f0, f.f1)
    calls.clear()
    for call in (lambda: homc(x, x), lambda: homc(x, y),
                 lambda: tensor2(x, x), lambda: tensor2(x, y),
                 lambda: is_null_homotopic(f), lambda: is_null_homotopic(g)):
        call()
    assert calls == []


@pytest.mark.parametrize("label_", ["Q", "Fp:3"])
def test_chain_map_rejects_single_entry_change(label_):
    # identity on K(1) + K(2)[1]: d0 = diag(0, -x^2), d1 = diag(x, 0), so
    # an entry change is caught by d0 f0 or f1 d0 (first square) or by
    # f0 d1 or d1 f1 (second square), depending on where it sits
    field = FieldSpec.from_label(label_)
    x = direct_sum(K(1, field), shift(K(2, field)))
    f = identity_map(x)
    o = one(field)
    caught = set()
    for comp in ("f0", "f1"):
        m = getattr(f, comp)
        for k in range(len(m.entries)):
            ents = list(m.entries)
            ents[k] = ents[k] + o
            g = dict(f0=f.f0, f1=f.f1)
            g[comp] = RMatrix(field, m.rows, m.cols, tuple(ents))
            squares = [("f1 d0 != d0 f0",
                        g["f1"] @ x.d0 - x.d0 @ g["f0"]),
                       ("f0 d1 != d1 f1",
                        g["f0"] @ x.d1 - x.d1 @ g["f1"])]
            bad = [(name, diff) for name, diff in squares if not diff.is_zero()]
            if not bad:
                ChainMap2(x, x, g["f0"], g["f1"])  # still a chain map
                continue
            with pytest.raises(InvalidChainMapError) as info:
                ChainMap2(x, x, g["f0"], g["f1"])
            name, diff = bad[0]
            i, j = first_nonzero(diff)
            assert str(info.value).startswith(f"{name} at ({i}, {j}): ")
            caught.add((comp, name))
    assert len(caught) == 4


# -- comparison isomorphism -------------------------------------------------------------

def test_delta_on_k1_k1():
    d = delta_iso(K(1), K(1))  # constructor verifies both squares exactly
    assert is_invertible(d.f0) and is_invertible(d.f1)


def test_delta_identity_for_free_point():
    x = _zeros(1, 0)
    y = K(2)
    d = delta_iso(x, y)
    assert d.f0 == RMatrix.identity(Q, 1)


def test_delta_k2_k3_and_random(rng):
    d = delta_iso(K(2), K(3))
    assert is_invertible(d.f0) and is_invertible(d.f1)
    for _ in range(5):
        x, _, _ = random_finite_length_instance(rng, Q, max_labels=2, max_j=3,
                                                max_trivials=1)
        y, _, _ = random_finite_length_instance(rng, Q, max_labels=2, max_j=3,
                                                max_trivials=1)
        d = delta_iso(x, y)
        assert is_invertible(d.f0) and is_invertible(d.f1)


# -- cone --------------------------------------------------------------------------------

def test_cone_ranks_and_vu():
    f = identity_map(K(1))
    c, u, v = cone(f)
    assert (c.r0, c.r1) == (2, 2)
    comp = compose(v, u)
    assert comp.f0.is_zero() and comp.f1.is_zero()


def test_cone_of_identity_contractible():
    c, _, _ = cone(identity_map(K(1)))
    s = reduce(c)
    assert s.minimal.total_rank == 0


def test_cone_of_zero_splits():
    c, _, _ = cone(zero_map(K(1), K(2)))
    assert decompose(c).multiset == \
        IndecompMultiset.from_labels([label(1, True), label(2, False)])


def test_cone_of_socle_map():
    from periodica import socle_map
    w = socle_map(2, Q)
    c, _, _ = cone(w)
    assert decompose(c).multiset == \
        IndecompMultiset.from_labels([label(1, True), label(3, True)])


def test_cone_requires_valid_chain_map():
    with pytest.raises(InvalidChainMapError):
        ChainMap2(K(1), K(2), mat(Q, 1, 1, [["1"]]), mat(Q, 1, 1, [["0"]]))


# -- cohomology ---------------------------------------------------------------------------

def test_cohomology_k2():
    h0, h1 = cohomology(K(2))
    assert h0.factors == (2,) and h0.free_rank == 0
    assert h1.factors == () and h1.free_rank == 0


def test_cohomology_trivial_type1():
    w = trivial_complex(TrivialType.TYPE1, 1, Q)
    h0, h1 = cohomology(w)
    assert (h0.factors, h0.free_rank) == ((), 0)
    assert (h1.factors, h1.free_rank) == ((), 0)


def test_cohomology_free_point():
    x = _zeros(1, 0)
    h0, h1 = cohomology(x)
    assert h0.free_rank == 1 and h0.factors == ()
    assert (h1.factors, h1.free_rank) == ((), 0)


# -- null homotopy -------------------------------------------------------------------------

def test_identity_on_trivial_null_homotopic():
    w = trivial_complex(TrivialType.TYPE1, 1, Q)
    h = is_null_homotopic(identity_map(w))
    assert h is not None and h.witnesses(identity_map(w))
    # the classical witness s0 = s1 = 1 also verifies
    from periodica import Homotopy2, one
    classical = Homotopy2(w, w, RMatrix.identity(Q, 1), RMatrix.identity(Q, 1))
    assert classical.witnesses(identity_map(w))


def test_identity_on_k1_not_null():
    assert is_null_homotopic(identity_map(K(1))) is None


def test_multiplication_by_x_on_k1_null():
    f = scale_map(identity_map(K(1)), x_power(Q, 1))
    h = is_null_homotopic(f)
    assert h is not None and h.witnesses(f)


def test_homotopy_witness_reverifies_random(rng):
    # boundaries of random degree -1 data must come back null-homotopic
    from periodica import Homotopy2
    from periodica.rand import random_matrix
    for _ in range(15):
        x, _, _ = random_finite_length_instance(rng, Q, max_labels=2, max_j=3,
                                                max_trivials=1)
        y, _, _ = random_finite_length_instance(rng, Q, max_labels=2, max_j=3,
                                                max_trivials=1)
        s0 = random_matrix(rng, Q, y.r1, x.r0, max_val=2)
        s1 = random_matrix(rng, Q, y.r0, x.r1, max_val=2)
        b0, b1 = Homotopy2(x, y, s0, s1).boundary()
        f = ChainMap2(x, y, b0, b1)
        h = is_null_homotopic(f)
        assert h is not None and h.witnesses(f)


def test_homotopy_witness_checks_both_degrees():
    # on K(1) + K(1)[1] the maps (E01, 0) and (0, E10) are chain maps that
    # differ from the boundary (0, 0) of s = 0 in one degree only
    from periodica import Homotopy2
    x = direct_sum(K(1), shift(K(1)))
    z = RMatrix.zeros(Q, 2, 2)
    s = Homotopy2(x, x, z, z)
    assert s.witnesses(zero_map(x, x))
    e01 = mat(Q, 2, 2, [["0", "1"], ["0", "0"]])
    assert not s.witnesses(ChainMap2(x, x, e01, z))
    assert not s.witnesses(ChainMap2(x, x, z, e01.transpose()))


# -- hom modules ---------------------------------------------------------------------------

def test_hom_module_k2_k3():
    hm = hom_module(K(2), K(3))
    assert hm.factors == (2,) and hm.free_rank == 0


def test_hom_module_min_rule_oracle():
    for i in range(1, 5):
        for j in range(1, 5):
            assert hom_module(K(i), K(j)).length() == \
                oracles.hom_length_kk(i, j, False)
            assert hom_module(K(i), shift(K(j))).length() == \
                oracles.hom_length_kk(i, j, True)


def test_hom_module_zero_target():
    hm = hom_module(K(2), zero_complex(Q))
    assert hm.factors == () and hm.free_rank == 0 and hm.length() == 0


def test_hom_module_generators_are_chain_maps():
    hm = hom_module(K(2), shift(K(2)))
    assert len(hm.generators) == 1  # cyclic module R/x^2
    g = hm.generators[0]
    assert g.f0.is_zero()  # even component forced to vanish


def test_hom_module_homotopy_invariance(rng):
    x = direct_sum(K(1), K(3))
    y = K(2)
    base = hom_module(x, y)
    for _ in range(5):
        x2, _, _ = conjugate_complex(rng, x)
        y2, _, _ = conjugate_complex(rng, y)
        hm = hom_module(x2, y2)
        assert hm.factors == base.factors
        assert hm.free_rank == base.free_rank


def test_hom_module_free_part():
    x = _zeros(1, 0)
    hm = hom_module(x, x)
    assert hm.free_rank == 1 and hm.factors == ()
    assert hm.length() == math.inf


# -- shift of maps ---------------------------------------------------------------------------

def test_shift_map_involution():
    f = identity_map(K(2))
    assert shifted_map(shifted_map(f)) == f
    sx = shift(f.src)
    assert shift_map(shift_map(f, sx, sx), f.src, f.dst) == f


def test_shift_map_components_swap():
    from periodica import socle_map
    w = socle_map(2, Q)
    sw = shifted_map(w)
    assert sw.f0 == w.f1 and sw.f1 == w.f0


def test_shift_map_takes_the_callers_ends():
    # f[1] runs between the shifted ends the caller passes, as they are;
    # only their ranks are checked
    x = direct_sum(K(1), shift(K(2)), _zeros(1, 0))
    y = direct_sum(K(3), _zeros(0, 2))
    f = zero_map(x, y)
    sx, sy = shift(x), shift(y)
    g = shift_map(f, sx, sy)
    assert g.src is sx and g.dst is sy
    assert g == shifted_map(f)
    for ends in ((x, sy), (sx, y), (sy, sx)):
        with pytest.raises(DimensionMismatchError, match="swapped ranks"):
            shift_map(f, *ends)
