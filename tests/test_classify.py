"""Classification: K(j) construction, finite-length detection, decompose
round trips with certificates, and homotopy-isomorphism decisions by the
test helper ``thelpers.is_homotopy_iso`` (transport to the minimal
models, then invertibility in both degrees)."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_smith_sympy import sympy_exponents, to_sympy
from thelpers import (
    is_homotopy_iso,
    mat,
    random_complex,
    scale_inverse_certificates,
    zero_complex,
)

from periodica import (
    FieldSpec,
    NotAComplexError,
    NotFiniteLengthError,
    RMatrix,
    TrivialType,
    TwoPeriodicComplex,
    cohomology,
    compose,
    direct_sum,
    identity_map,
    k_complex,
    scale_map,
    shift,
    trivial_complex,
    x_power,
)
from periodica.classify import (
    IndecompMultiset,
    _block_sum_certificate,
    assemble,
    decompose,
    finite_length_cohomology,
    label,
)
from periodica.errors import InvalidChainMapError, PeriodicaError
from periodica.localring import format_element
from periodica.minimal import _split, is_minimal, reduce
from periodica.rand import conjugate_complex, random_finite_length_instance
from periodica.smith import (
    TrackedBasis,
    _add_batch,
    homology_invariants,
    smith_normal_form,
)

Q = FieldSpec.rationals()


def test_k_complex_basics():
    k1 = k_complex(1, Q)
    assert k1.d1 == mat(Q, 1, 1, [["x"]]) and k1.d0.is_zero()
    h0, h1 = cohomology(k_complex(3, Q))
    assert h0.factors == (3,) and (h1.factors, h1.free_rank) == ((), 0)
    h0s, h1s = cohomology(shift(k_complex(3, Q)))
    assert (h0s.factors, h0s.free_rank) == ((), 0)
    assert h1s.factors == (3,)
    with pytest.raises(ValueError):
        k_complex(0, Q)


def test_finite_length_detection():
    assert finite_length_cohomology(k_complex(4, Q))
    free_pt = TwoPeriodicComplex(Q, 1, 0, RMatrix.zeros(Q, 0, 1),
                                 RMatrix.zeros(Q, 1, 0))
    assert not finite_length_cohomology(free_pt)
    # unequal ranks can never have finite-length cohomology
    assert not finite_length_cohomology(
        TwoPeriodicComplex(Q, 2, 1, mat(Q, 1, 2, [["x", "0"]]),
                           RMatrix.zeros(Q, 2, 1)))


def test_decompose_roundtrip_with_trivials(rng):
    x = direct_sum(k_complex(1, Q), shift(k_complex(2, Q)),
                   trivial_complex(TrivialType.TYPE1, 1, Q))
    for _ in range(5):
        y, _, _ = conjugate_complex(rng, x)
        dec = decompose(y)
        assert dec.multiset == IndecompMultiset.from_labels(
            [label(1, False), label(2, True)])


def test_decompose_zero():
    dec = decompose(zero_complex(Q))
    assert dec.multiset.items == ()


def test_decompose_rejects_infinite_length():
    free_pt = TwoPeriodicComplex(Q, 1, 0, RMatrix.zeros(Q, 0, 1),
                                 RMatrix.zeros(Q, 1, 0))
    with pytest.raises(NotFiniteLengthError):
        decompose(free_pt)


def test_decompose_certificates(rng):
    for _ in range(10):
        x, ms, _ = random_finite_length_instance(rng, Q, max_labels=3, max_j=4)
        dec = decompose(x)
        assert dec.multiset == ms
        to_blocks = dec.certificate.to_blocks
        from_blocks = dec.certificate.from_blocks
        assert to_blocks.src == dec.minimal
        assert to_blocks.dst == assemble(dec.multiset, Q)
        n = dec.minimal.r0
        for rt in (compose(to_blocks, from_blocks),
                   compose(from_blocks, to_blocks)):
            assert rt.f0 == RMatrix.identity(Q, n)
            assert rt.f1 == RMatrix.identity(Q, n)


def _lengths(ms: IndecompMultiset) -> tuple:
    """The lengths of H0 and H1 of the block sum of ms: the sum of j over
    the labels K(j), and over the labels K(j)[1]."""
    return tuple(sum(lab.j * m for lab, m in ms.items if lab.shifted == s)
                 for s in (False, True))


def test_decompose_cohomology_consistency(rng):
    for _ in range(10):
        x, ms, _ = random_finite_length_instance(rng, Q)
        h0, h1 = cohomology(x)
        assert (h0.free_rank, h1.free_rank) == (0, 0)
        assert (sum(h0.factors), sum(h1.factors)) == _lengths(ms)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cohomology_lengths_are_smith_exponent_sums(label_, seed):
    # the reading of cohomology: for finite-length X,
    # length H0 = sum of the exponents of d1, length H1 = that of d0,
    # and the ranks of d0 and d1 add up to r0
    field = FieldSpec.from_label(label_)
    x, _, _ = random_finite_length_instance(Random(seed), field, max_labels=3,
                                            max_j=4, max_trivials=2)
    s0, s1 = smith_normal_form(x.d0), smith_normal_form(x.d1)
    h0, h1 = cohomology(x)
    assert (h0.free_rank, h1.free_rank) == (0, 0)
    assert sum(s1.exponents) == sum(h0.factors)
    assert sum(s0.exponents) == sum(h1.factors)
    assert s0.rank + s1.rank == x.r0


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["any", "finite", "finite+free"]),
       r0=st.integers(0, 5), r1=st.integers(0, 5))
def test_cohomology_matches_homology_invariants(label_, seed, source, r0,
                                                 r1):
    # cohomology reads Smith exponents; the oracle presents ker/im by a
    # second Smith form on the kernel block.  "any" draws ranks (r0, r1)
    # with free summands, r0 != r1 and zero ranks; "finite+free" adds
    # zero differentials of ranks (r0, r1) to a finite-length instance
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    if source == "any":
        x = random_complex(rng, field, r0, r1)
    else:
        x, _, _ = random_finite_length_instance(rng, field, max_labels=3,
                                                max_j=4, max_trivials=2)
        if source == "finite+free":
            free = TwoPeriodicComplex(field, r0, r1,
                                      RMatrix.zeros(field, r1, r0),
                                      RMatrix.zeros(field, r0, r1))
            x = conjugate_complex(rng, direct_sum(x, free), max_val=2)[0]
    h0, h1 = cohomology(x)
    assert h0 == homology_invariants(x.d0, x.d1)[0]
    assert h1 == homology_invariants(x.d1, x.d0)[0]


def _split_labels(labels: tuple, shifted: bool) -> tuple:
    """(sorted j of the labels K(j) (or K(j)[1] when shifted), number of
    free labels R (or R[1])): the factors and free rank of H0 (or H1) of
    the block sum of ``labels``."""
    return (tuple(sorted(j for j, s in labels if s == shifted and j)),
            sum(1 for j, s in labels if s == shifted and not j))


def _sympy_exponents(field, a) -> tuple:
    """The x-adic valuations of sympy's nonzero invariant factors of the
    polynomial matrix a."""
    assert all(len(e.den) == 1 for e in a.entries)  # polynomial entries
    if not (a.rows and a.cols):
        return ()
    return sympy_exponents(field, to_sympy(field, a.to_grid(), a.rows, a.cols))


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free0=st.integers(0, 2),
       free1=st.integers(0, 2))
def test_labels_agree_with_cohomology_and_sympy(label_, seed, free0, free1):
    # decompose's labels are proved by the split alone; here they meet
    # cohomology (the Smith exponents of X's differentials) and sympy's
    # invariant factors of d0 and d1, which share no code with either.
    # free0 copies of R and free1 of R[1] give free labels, and r0 != r1
    # when free0 != free1
    field = FieldSpec.from_label(label_)
    rng = Random(seed)
    x, _, _ = random_finite_length_instance(rng, field, max_labels=3,
                                            max_j=4, max_trivials=2)
    if free0 or free1:
        free = TwoPeriodicComplex(field, free0, free1,
                                  RMatrix.zeros(field, free1, free0),
                                  RMatrix.zeros(field, free0, free1))
        x = conjugate_complex(rng, direct_sum(x, free), max_val=2)[0]
    labels = _block_sum_certificate(x).labels
    h0, h1 = cohomology(x)
    assert (h0.factors, h0.free_rank) == _split_labels(labels, False)
    assert (h1.factors, h1.free_rank) == _split_labels(labels, True)
    e0, e1 = _sympy_exponents(field, x.d0), _sympy_exponents(field, x.d1)
    rank = len(e0) + len(e1)
    assert (tuple(sorted(e for e in e1 if e)), x.r0 - rank) == \
        _split_labels(labels, False)
    assert (tuple(sorted(e for e in e0 if e)), x.r1 - rank) == \
        _split_labels(labels, True)
    if free0 or free1:
        with pytest.raises(NotFiniteLengthError):
            decompose(x)
    else:
        assert decompose(x).multiset == IndecompMultiset.from_labels(
            label(j, s) for j, s in labels)


def test_lemma_stable_equal_minimal_ranks(rng):
    for _ in range(10):
        x, _, _ = random_finite_length_instance(rng, Q)
        m = reduce(x).minimal
        assert m.r0 == m.r1


def test_conjugation_invariance_many(rng):
    x = direct_sum(k_complex(2, Q), shift(k_complex(1, Q)))
    base = decompose(x).multiset
    for _ in range(25):
        y, _, _ = conjugate_complex(rng, x)
        assert decompose(y).multiset == base


def test_decompose_prime_field(rng):
    f = FieldSpec.prime_field(101)
    for _ in range(10):
        x, ms, _ = random_finite_length_instance(rng, f)
        assert decompose(x).multiset == ms


def test_multiset_canonical_order():
    ms = IndecompMultiset.from_labels(
        [label(3, True), label(1, False), label(3, True), label(2, False)])
    assert [(l.j, l.shifted, m) for l, m in ms.items] == \
        [(1, False, 1), (2, False, 1), (3, True, 2)]
    assert str(ms) == "K(1) + K(2) + 2*K(3)[1]"


def test_is_homotopy_iso_identity_and_scaled():
    k1 = k_complex(1, Q)
    assert is_homotopy_iso(identity_map(k1))
    xf = scale_map(identity_map(k1), x_power(Q, 1))
    assert not is_homotopy_iso(xf)


def test_is_homotopy_iso_split_maps(rng):
    x, _, _ = random_finite_length_instance(rng, Q, max_labels=2, max_j=3)
    s = reduce(x)
    assert is_homotopy_iso(compose(s.into, s.back))
    assert is_homotopy_iso(s.into) and is_homotopy_iso(s.back)


def test_is_homotopy_iso_between_different_objects():
    from periodica import hom_module
    gens = hom_module(k_complex(1, Q), k_complex(2, Q)).generators
    assert all(not is_homotopy_iso(g) for g in gens)


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_decompose_rejects_scaled_inverse_certificate(label_, monkeypatch):
    # decompose builds and checks one pair of bases: reduce's for a
    # non-minimal input (seed 10 draws 2*K(1)[1] with one trivial summand
    # of each type), the classification's own for a minimal one (seed 7
    # draws K(1)[1]).  The doubled inverse is still a chain map, so only
    # p q = I rejects it
    field = FieldSpec.from_label(label_)
    for seed, trivials in ((10, (1, 1)), (7, (0, 0))):
        x, _, drawn = random_finite_length_instance(
            Random(seed), field, max_labels=2, max_j=2, max_trivials=2)
        assert drawn == trivials and x.r0 > 0
        decompose(x)
        with monkeypatch.context() as patch:
            scale_inverse_certificates(patch)
            with pytest.raises(PeriodicaError) as exc:
                decompose(x)
        assert str(exc.value) == \
            "split certificates do not compose to identity"


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
def test_split_rejects_a_log_without_an_add_step(label_, monkeypatch):
    # the split's one proof is back's check plus p q = I.  Replaying the
    # F1 basis log without the first step of its first add batch gives a
    # p and q that are still mutually inverse, so only back's check can
    # reject them, and it names the first entry where p1 d0 and d0_B p0
    # differ.  Seed 10 draws 2*K(1)[1] with one trivial summand of each
    # type (reduce's split), seed 24 the minimal K(2) + K(1)[1] (the
    # classification's own split)
    field = FieldSpec.from_label(label_)
    real = TrackedBasis.matrices
    for seed, trivials in ((10, 2), (24, 0)):
        x, _, _ = random_finite_length_instance(
            Random(seed), field, max_labels=2, max_j=2,
            max_trivials=trivials)
        assert is_minimal(x) == (trivials == 0)
        blocksum = _split(x).back.dst
        replayed = []

        def without_an_add(self):
            if len(replayed) == 1:  # the F1 basis, whose log is read second
                k, batch = next((k, entry[1])
                                for k, entry in enumerate(self.steps)
                                if entry[0] is _add_batch)
                self.steps = [*self.steps[:k], (_add_batch, batch[1:]),
                              *self.steps[k + 1:]]
            replayed.append(real(self))
            return replayed[-1]

        with monkeypatch.context() as patch:
            patch.setattr(TrackedBasis, "matrices", without_an_add)
            with pytest.raises(InvalidChainMapError) as exc:
                decompose(x)
        (p0, q0), (p1, q1) = replayed
        assert p0 @ q0 == RMatrix.identity(field, x.r0)
        assert p1 @ q1 == RMatrix.identity(field, x.r1)
        lhs, rhs = p1 @ x.d0, blocksum.d0 @ p0
        i, j = next((i, j) for i in range(x.r1) for j in range(x.r0)
                    if lhs.at(i, j) != rhs.at(i, j))
        assert str(exc.value) == (
            f"f1 d0 != d0 f0 at ({i}, {j}): {format_element(lhs.at(i, j))}"
            f" != {format_element(rhs.at(i, j))}")


def test_decompose_rejects_non_complex():
    # rank d0 + rank d1 = 2 = r0 would pass the finite-length test, but
    # d1 d0 = d0 d1 = diag(1, 0): the constructor rejects it, so no such
    # input reaches decompose
    d = mat(Q, 2, 2, [["1", "0"], ["0", "0"]])
    with pytest.raises(NotAComplexError) as exc:
        TwoPeriodicComplex(Q, 2, 2, d, d)
    assert str(exc.value) == "d1*d0 has nonzero entry at (0, 0)"
