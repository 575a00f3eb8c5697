"""Classification of finite-length 2-periodic complexes over the DVR.

Every indecomposable with finite-length cohomology is one of the
rank-(1,1) complexes K(j) (odd differential x^j, even differential 0)
or its shift.  ``decompose`` certifies this with the one elimination of
``minimal.reduce``: the Smith sweep of the odd differential splits off
the Type1 summands and the unshifted ones (both composites being zero
forces the complementary blocks of the even differential to vanish);
the sweep of the remaining even differential then splits off the Type2
summands and the shifted ones.  ``reduce``'s minimal model is the block
sum of these labels, and its checked pair (``back`` a chain map, p q = I
in each degree) carries X to that block sum plus the trivial complexes
and back.  That pair is the split's one proof: it also proves the labels,
and the minimal model is minimal by construction (``minimal``
docstring).  The minimal model's certificate
(``DecomposeResult.certificate``, a ``complexes.BlockSumCertificate``)
is then its identity.  A minimal X, which ``reduce`` returns as it is,
is labelled by the same sweeps (``minimal._split``), and their checked
pair is its certificate.  Either way one pair of bases is built and
checked once.

Peeling order: odd differential first, invariants ascending — the
certificate is deterministic.

One internal classification serves every complex.  The basis vectors
that neither sweep pivots on carry zero differentials: they are the free
summands, labelled R (j = 0, degree 0, ranks (1, 0)) and R[1] (j = 0,
shifted, ranks (0, 1)) after the K(j) and K(j)[1] blocks, in the label
coordinates of ``models``.
``complexes.is_null_homotopic`` reads that certificate for any input.
The public contract is the finite-length one: ``decompose`` rejects an
input with a free label (``NotFiniteLengthError``), as before, and no
public result carries one.

``decomposition_certificate`` gives the certificate of the input X that
``complexes.hom_module`` and ``complexes.is_null_homotopic`` read: the
minimal model's when ``reduce`` split off nothing, else the blocks of
``reduce``'s pair that run between X and the minimal model, with the
trivial part's contraction, built without a check since its identities
follow from those of ``reduce``'s checked pair.  It is the package's one
trivial contraction: for a contractible X (no labels) it witnesses
id_X ~ 0.  ``model_certificate`` is the identity certificate of a model
block sum, with no ``reduce`` and no check: the identity is one by
construction.

The input is a complex by construction (``TwoPeriodicComplex`` checks
d^2 = 0).  The two sweeps give the ranks of the minimal differentials,
so they also decide finite length.  No cohomology comparison follows: a
strict isomorphism keeps cohomology, and a block sum's is read off its
labels, so one would test ``complexes.cohomology``, not the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import (
    BlockSumCertificate,
    ChainMap2,
    Homotopy2,
    TwoPeriodicComplex,
    _model_sum,
    _unchecked,
    cohomology,
    identity_map,
)
from .errors import NotFiniteLengthError
from .fields import FieldSpec
from .minimal import SplitResult, _split, reduce


@dataclass(frozen=True, order=True)
class IndecompLabel:
    """K(j) when shifted is False, K(j)[1] when True; unshifted sorts first."""

    shifted: bool
    j: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("label index must be >= 1")

    @property
    def name(self) -> str:
        return f"K({self.j})" + ("[1]" if self.shifted else "")


def label(j: int, shifted: bool = False) -> IndecompLabel:
    return IndecompLabel(shifted=shifted, j=j)


@dataclass(frozen=True)
class IndecompMultiset:
    """Canonically sorted multiset of indecomposable labels."""

    items: tuple  # ((IndecompLabel, multiplicity), ...) sorted, mult >= 1

    @staticmethod
    def from_labels(labels: Iterable[IndecompLabel]) -> "IndecompMultiset":
        counts: dict = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        return IndecompMultiset(tuple(sorted(counts.items())))

    def labels(self) -> list:
        out = []
        for lab, mult in self.items:
            out.extend([lab] * mult)
        return out

    def size(self) -> int:
        return sum(m for _, m in self.items)

    def is_singleton(self) -> bool:
        return len(self.items) == 1 and self.items[0][1] == 1

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return " + ".join(
            lab.name if m == 1 else f"{m}*{lab.name}" for lab, m in self.items)


def k_complex(j: int, field: FieldSpec) -> TwoPeriodicComplex:
    """K(j): ranks (1, 1), even differential 0, odd differential x^j."""
    if j < 1:
        raise ValueError("k_complex needs j >= 1")
    return _model_sum(field, [(j, False)])


def assemble(ms: IndecompMultiset, field: FieldSpec) -> TwoPeriodicComplex:
    """Block sum of the model complexes in canonical label order."""
    return _model_sum(field, [(l.j, l.shifted) for l in ms.labels()])


def model_certificate(labels: Iterable[IndecompLabel],
                      field: FieldSpec) -> BlockSumCertificate:
    """The identity certificate of the block sum of ``labels`` in the
    given order (``k_complex`` for one label K(j), ``assemble`` for a
    multiset's labels); its ``complex`` is that block sum."""
    pairs = tuple((l.j, l.shifted) for l in labels)
    ident = identity_map(_model_sum(field, pairs))
    return _unchecked(BlockSumCertificate, pairs, ident, ident, None)


def finite_length_cohomology(x: TwoPeriodicComplex) -> bool:
    """True iff both cohomologies are torsion: ``cohomology`` gives free
    ranks r0 - rank d0 - rank d1 and r1 - rank d0 - rank d1, both 0
    exactly when rank(d0) + rank(d1) = r0 = r1."""
    h0, h1 = cohomology(x)
    return not (h0.free_rank or h1.free_rank)


@dataclass(frozen=True)
class DecomposeResult:
    """Multiset of indecomposables, the splitting X = minimal + trivials
    of ``reduce``, and the block-sum certificate of the minimal model:
    mutually inverse isomorphisms in the strict category between the
    minimal model and the canonical labelled block sum."""

    multiset: IndecompMultiset
    split: SplitResult
    certificate: BlockSumCertificate

    @property
    def minimal(self) -> TwoPeriodicComplex:
        return self.split.minimal


def _classify(x: TwoPeriodicComplex) -> tuple:
    """(split, certificate): the splitting X = M + T of ``reduce`` and the
    block-sum certificate of the minimal model M, whose labels name the
    free summands too: R (0, False) and R[1] (0, True) after the K(j)
    and then the K(j)[1] blocks.  Unless X is minimal, M is the block sum
    of ``reduce``'s labels and the certificate its identity; a minimal X,
    which ``reduce`` returns as it is, is labelled by the same sweeps
    (``minimal._split``), whose checked pair is then the certificate."""
    split = reduce(x)
    if split.labels is None:
        own = _split(x)
        return split, _unchecked(BlockSumCertificate, own.labels, own.back,
                                 own.into, None)
    ident = identity_map(split.minimal)
    return split, _unchecked(BlockSumCertificate, split.labels, ident, ident,
                             None)


def decompose(x: TwoPeriodicComplex) -> DecomposeResult:
    if x.r0 != x.r1:
        raise NotFiniteLengthError("complex does not have finite-length cohomology")
    split, certificate = _classify(x)
    if not all(j for j, _ in certificate.labels):
        raise NotFiniteLengthError("complex does not have finite-length cohomology")
    ms = IndecompMultiset.from_labels(
        IndecompLabel(shifted, j) for j, shifted in certificate.labels)
    return DecomposeResult(ms, split, certificate)


def _moved_certificate(split: SplitResult, certificate: BlockSumCertificate
                       ) -> BlockSumCertificate:
    """The certificate of the minimal model moved to X along the
    splitting X = M + T (see ``decomposition_certificate``), built
    without a check: every part is a block of a checked map.  M is its
    own block sum, with the identity certificate, so P = pi back and
    Q = into iota are chain maps (the projection pi onto M and the
    inclusion iota of M are, the sum being direct), P Q = pi back into
    iota = I, and id - Q P = into (0 + 1_T) back = d h + h d for
    h = into s back, s the standard contraction of T."""
    if split.labels is None:
        return certificate
    into, back, m = split.into, split.back, split.minimal
    x = into.dst
    return _unchecked(
        BlockSumCertificate, certificate.labels,
        _unchecked(ChainMap2, x, m, back.f0.submatrix(0, m.r0, 0, x.r0),
                   back.f1.submatrix(0, m.r1, 0, x.r1)),
        _unchecked(ChainMap2, m, x, into.f0.submatrix(0, x.r0, 0, m.r0),
                   into.f1.submatrix(0, x.r1, 0, m.r1)),
        Homotopy2(x, x,
                  into.f1.submatrix(0, x.r1, m.r1, x.r1)
                  @ back.f0.submatrix(m.r0, x.r0, 0, x.r0),
                  into.f0.submatrix(0, x.r0, m.r0, x.r0)
                  @ back.f1.submatrix(m.r1, x.r1, 0, x.r1)))


def decomposition_certificate(dec: DecomposeResult) -> BlockSumCertificate:
    """The block-sum certificate of the decomposed complex X itself.

    When ``reduce`` split off no trivial summand, X is its own minimal
    model and this is ``dec.certificate``, with no further check.
    Otherwise the minimal model is its own block sum and the splitting
    X = M + T moves its identity certificate to X: P = the rows of
    split.back onto M, Q = the columns of split.into from M, and
    h = into (0 + 1_T) back, the standard contraction s = 1 of T moved
    to X.  Its identities follow from the checked ones of ``reduce``, so
    it is built without a second check (``_moved_certificate``).
    """
    return _moved_certificate(dec.split, dec.certificate)


def _block_sum_certificate(x: TwoPeriodicComplex) -> BlockSumCertificate:
    """The block-sum certificate of any complex X, its free summands
    labelled R and R[1]; ``complexes.is_null_homotopic`` reads it."""
    return _moved_certificate(*_classify(x))

