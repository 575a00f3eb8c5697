"""Minimality, the splitting into minimal + trivial summands, and the
contraction witnesses.  The trivial counts of ``reduce`` are checked
against an oracle that shares no code with the elimination engine: the
k-ranks of d1(0) and d0(0), by Gaussian elimination over k written
here."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thelpers import random_complex, scale_inverse_certificates, zero_complex

from periodica import (
    FieldSpec,
    NotFiniteLengthError,
    RMatrix,
    TrivialType,
    TwoPeriodicComplex,
    direct_sum,
    dual,
    identity_map,
    is_minimal,
    is_null_homotopic,
    k_complex,
    reduce,
    shift,
    trivial_complex,
)
from periodica.classify import (
    IndecompMultiset,
    decompose,
    decomposition_certificate,
    finite_length_cohomology,
    label,
)
from periodica.complexes import _model_sum
from periodica.errors import PeriodicaError
from periodica.rand import conjugate_complex, random_finite_length_instance

Q = FieldSpec.rationals()


def test_is_minimal_k():
    for j in (1, 2, 7):
        assert is_minimal(k_complex(j, Q))


def test_is_minimal_trivial_false():
    assert not is_minimal(trivial_complex(TrivialType.TYPE1, 1, Q))


def test_is_minimal_vacuous():
    assert is_minimal(zero_complex(Q))


def test_trivial_complex_shapes():
    t1 = trivial_complex(TrivialType.TYPE1, 1, Q)
    assert t1.d1 == RMatrix.identity(Q, 1) and t1.d0.is_zero()
    t2 = trivial_complex(TrivialType.TYPE2, 1, Q)
    assert t2.d0 == RMatrix.identity(Q, 1) and t2.d1.is_zero()
    t0 = trivial_complex(TrivialType.TYPE1, 0, Q)
    assert (t0.r0, t0.r1) == (0, 0)


def test_reduce_already_minimal():
    lopsided = direct_sum(k_complex(2, Q), shift(k_complex(1, Q)),
                          TwoPeriodicComplex(Q, 1, 0, RMatrix.zeros(Q, 0, 1),
                                             RMatrix.zeros(Q, 1, 0)))
    for x in (k_complex(2, Q), lopsided):
        s = reduce(x)
        assert s.minimal == x and s.type1 == s.type2 == 0
        assert s.into == s.back == identity_map(x)


def test_reduce_conjugated_k2_plus_trivial(rng):
    x = direct_sum(k_complex(2, Q), trivial_complex(TrivialType.TYPE1, 1, Q))
    for _ in range(5):
        y, _, _ = conjugate_complex(rng, x)
        s = reduce(y)
        assert (s.minimal.r0, s.minimal.r1) == (1, 1)
        assert s.type1 + s.type2 == 1
        assert decompose(y).multiset == \
            IndecompMultiset.from_labels([label(2, False)])


def test_reduce_acyclic_to_zero(rng):
    x = direct_sum(trivial_complex(TrivialType.TYPE1, 2, Q),
                   trivial_complex(TrivialType.TYPE2, 1, Q))
    for _ in range(5):
        y, _, _ = conjugate_complex(rng, x)
        s = reduce(y)
        assert s.minimal.total_rank == 0
        assert s.type1 == 2 and s.type2 == 1


def test_reduce_certificates_compose(rng):
    from periodica import compose
    for _ in range(10):
        x, _, _ = random_finite_length_instance(rng, Q)
        s = reduce(x)
        rt = compose(s.into, s.back)
        assert rt.f0 == RMatrix.identity(Q, x.r0)
        assert rt.f1 == RMatrix.identity(Q, x.r1)


def test_reduce_rank_accounting(rng):
    for _ in range(10):
        x, _, _ = random_finite_length_instance(rng, Q)
        s = reduce(x)
        assert s.minimal.r0 + s.type1 + s.type2 == x.r0
        assert s.minimal.r1 + s.type1 + s.type2 == x.r1


def test_minimal_model_unique_ranks(rng):
    # conjugation cannot change the minimal model
    x = direct_sum(k_complex(2, Q), trivial_complex(TrivialType.TYPE2, 1, Q))
    base = reduce(x)
    for _ in range(10):
        y, _, _ = conjugate_complex(rng, x)
        s = reduce(y)
        assert (s.minimal.r0, s.minimal.r1) == \
            (base.minimal.r0, base.minimal.r1)
        assert decompose(y).multiset == decompose(x).multiset


def test_w_class_closed_under_shift_and_dual():
    for kind in TrivialType:
        w = trivial_complex(kind, 2, Q)
        for image in (shift(w), dual(w)):
            s = reduce(image)
            assert s.minimal.total_rank == 0


def test_minimal_nonzero_identity_not_null(rng):
    for _ in range(10):
        x, ms, _ = random_finite_length_instance(rng, Q, max_trivials=0)
        if ms.size() == 0:
            continue
        m = reduce(x).minimal
        assert is_null_homotopic(identity_map(m)) is None


def test_dual_of_contractible_contractible(rng):
    for _ in range(10):
        x = direct_sum(trivial_complex(TrivialType.TYPE1, 1, Q),
                       trivial_complex(TrivialType.TYPE2, 1, Q))
        y, _, _ = conjugate_complex(rng, x)
        if reduce(y).minimal.total_rank == 0:
            assert reduce(dual(y)).minimal.total_rank == 0


FIELDS = [FieldSpec.from_label(s) for s in ("Q", "Fp:3", "Fp:101")]


def _contracts(w) -> bool:
    """Whether the contraction of a contractible w, the one its
    decomposition certificate carries, witnesses id_w ~ 0."""
    dec = decompose(w)
    assert dec.multiset.size() == 0
    return (decomposition_certificate(dec).contraction
            .witnesses(identity_map(w)))


def test_contraction_type1():
    for field in FIELDS:
        for n in (1, 3):
            assert _contracts(trivial_complex(TrivialType.TYPE1, n, field))


def test_contraction_type2_and_mixed():
    for field in FIELDS:
        assert _contracts(trivial_complex(TrivialType.TYPE2, 1, field))
        assert _contracts(direct_sum(
            trivial_complex(TrivialType.TYPE1, 1, field),
            trivial_complex(TrivialType.TYPE2, 2, field)))


def test_contraction_conjugated(rng):
    for field in FIELDS:
        x = direct_sum(trivial_complex(TrivialType.TYPE1, 1, field),
                       trivial_complex(TrivialType.TYPE2, 1, field))
        for _ in range(3):
            assert _contracts(conjugate_complex(rng, x)[0])


def _rank_at_zero(m: RMatrix) -> int:
    """k-rank of m(0): Gaussian elimination over k on the constant terms
    num(0) / den(0) of the entries."""
    p = m.field.p

    def div(a, b):
        return Fraction(a) / b if p == 0 else a * pow(b, -1, p) % p

    rows = [[div(e.num[0], e.den[0]) if e else 0
             for e in m.entries[i * m.cols:(i + 1) * m.cols]]
            for i in range(m.rows)]
    rank = 0
    for c in range(m.cols):
        hit = next((i for i in range(rank, m.rows) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, m.rows):
            f = div(rows[i][c], top[c])
            rows[i] = [a - f * b if p == 0 else (a - f * b) % p
                       for a, b in zip(rows[i], top)]
        rank += 1
    return rank


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r0=st.integers(0, 4),
       r1=st.integers(0, 4), finite=st.booleans())
def test_reduce_counts_are_the_ranks_at_zero(label_, seed, r0, r1, finite):
    # a complex with free parts, r0 != r1 or rank 0, or a finite-length
    # one with trivial summands: type1 and type2 are the k-ranks of d1(0)
    # and d0(0), and the rest is a minimal model, the block sum of its
    # labels unless X is minimal and returned as it is.  decompose takes
    # the same split
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    if finite:
        x, _, _ = random_finite_length_instance(
            rng, field, max_labels=2, max_j=3, max_trivials=3, max_val=2)
    else:
        x = random_complex(rng, field, r0, r1)
    split = reduce(x)
    t1, t2 = _rank_at_zero(x.d1), _rank_at_zero(x.d0)
    assert (split.type1, split.type2) == (t1, t2)
    assert (split.minimal.r0, split.minimal.r1) == \
        (x.r0 - t1 - t2, x.r1 - t1 - t2)
    assert is_minimal(split.minimal)
    assert (split.labels is None) == is_minimal(x)
    if split.labels is None:
        assert split.minimal == x
    else:
        assert split.minimal == _model_sum(field, split.labels)
    if finite_length_cohomology(x):
        assert decompose(x).split == split
    else:
        with pytest.raises(NotFiniteLengthError):
            decompose(x)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_reduce_rejects_scaled_inverse_certificate(label_, monkeypatch):
    field = FieldSpec.from_label(label_)
    # seed 10 draws 2*K(1)[1] with one trivial summand of each type, so
    # reduce peels and builds its bases
    x, _, trivials = random_finite_length_instance(
        Random(10), field, max_labels=2, max_j=2, max_trivials=2)
    assert trivials == (1, 1)
    reduce(x)
    scale_inverse_certificates(monkeypatch)
    with pytest.raises(PeriodicaError) as exc:
        reduce(x)
    assert str(exc.value) == "split certificates do not compose to identity"


@pytest.mark.parametrize("call", [0, 1])
def test_reduce_checks_the_identity_in_each_degree(call, monkeypatch):
    # zero differentials of ranks (2, 3) plus one Type-1 block, which
    # reduce peels.  Scaling the inverse's first basis vector, which lies
    # in the zero part, in one degree (b0 is read first, then b1) keeps a
    # chain map, so it is left to p q = I
    zeros = TwoPeriodicComplex(Q, 2, 3, RMatrix.zeros(Q, 3, 2),
                               RMatrix.zeros(Q, 2, 3))
    x = direct_sum(zeros, trivial_complex(TrivialType.TYPE1, 1, Q))
    assert reduce(x).type1 == 1
    scale_inverse_certificates(monkeypatch, calls=(call,), cols=(0,))
    with pytest.raises(PeriodicaError) as exc:
        reduce(x)
    assert str(exc.value) == "split certificates do not compose to identity"
