"""Auslander-Reiten theory of the finite-length homotopy category over
the DVR: Serre functor, socle maps, AR-triangles, mechanical
verification of the right/left AR axioms, and the AR-quiver.

Over the DVR the Serre functor acts on indecomposables by flipping the
shift class, so the AR-translate is the identity on labels.  The
AR-triangle ending at K(i) is built as the rotation of the strict cone
triangle on (-h)[-1] where h is the socle map K(i) -> K(i)[1]; with the
period-2 shift being a strict involution the rotated connecting map is
exactly h.

Axiom 3 asks that the connecting map kill every non-isomorphism between
a test object D and the endpoint.  When D is not the endpoint every map
is a non-isomorphism and each Hom generator is tested.  When D is the
endpoint K(j) (or K(j)[1]), End(D) = R/x^j is local with radical x End(D),
so the non-isomorphisms form x Hom and x g is tested for each generator g.

Every null-homotopy test of the axiom checks, and every Hom of
``socle_map`` and of ``serre_length_check``, passes block-sum
certificates to ``complexes.is_null_homotopic`` /
``complexes.hom_module``, so they are read off labels and valuations
instead of Smith forms.  The triangle carries these certificates, built
once where its terms are built: ``ar_triangle`` returns an
``ARTriangle``, whose ``terms`` are the multisets of N, M and E and the
certificates of N, M, N[1] and M[1].  N = M = K(i) is the model block
sum of one label, so its certificate is the identity one that
``socle_map`` builds for its Hom, N is that certificate's own complex,
and N[1]'s certificate is its shift.  E, the cone, has finite-length
cohomology, so by the classification (``classify``) it is homotopy
equivalent to the sum of K(j) over the factors R/x^j of its H0 and of
K(j)[1] over those of its H1: E's labels are read off its cohomology,
two Smith forms, and no check reads a certificate of E.
``shift_triangle`` carries the terms over with no decomposition:
the shift is a triangle autoequivalence, so the terms of the shifted
triangle are the same multisets with every label's shift class
flipped, and since X[1][1] = X on the nose the certificates of N[1],
M[1], N[1][1] and M[1][1] are those of N[1], M[1], N and M.  The
shifted triangle's ends N[1] and M[1] are the complexes of the carried
certificates of N[1] and M[1], so only E is shifted, and every shifted
map (the rotated socle map of ``ar_triangle``, the maps of
``shift_triangle`` and the left connecting map -h[1] of the verifiers)
runs between complexes the triangle carries (``complexes.shift_map``).
Each certificate check of a Hom or null test then finds the
certificate's own complex, with no comparison by value.  The
verifiers and ``build_quiver`` read the carried terms and decompose
nothing.  The Serre image F(X) is a model block sum with the identity
certificate.

The AR3 candidates are read in label coordinates, with no Hom module
built: each test object D is a model K(j)[e], one label, and the
endpoint M (right) or N (left) carries the block-sum certificate
(P, Q).  The closed form of ``hom_module`` generates Hom(D, M) by
Q_M g P_D, one generator g per label b of M with a nonzero
``models.entry`` (D, b), and Hom(N, D) by Q_D g P_N.  D carries its
identity certificate, so P_D = Q_D = I, and a candidate is named by its
label, its generator index in the order of ``models.hom_pairs``, the
endpoint label's indices and the powers of x of g, one higher when D is
the endpoint.  No certificate is built per test object.

Axiom 3 is tested in batches of at most ``_AR3_BATCH`` candidates.  A
map out of a direct sum is null-homotopic exactly when each of its
components is, and dually a map into a product (a finite direct sum)
is null-homotopic exactly when each component is: a witness for the
whole restricts to one for each component, and witnesses for the
components assemble to one for the whole (Happel, *Triangulated
Categories in the Representation Theory of Finite-Dimensional
Algebras*, LMS LN 119, 1988, Ch. I.4).  So on the right the candidates
D_k -> M, side by side, form one chain map F out of the block sum of
their test objects, and h F is null-homotopic exactly when h kills
every candidate; on the left the candidates N -> D_k, stacked, form F
into that block sum, tested by F w.  Side by side, the generators
Q_M g_k are Q_M G for the monomial matrix G whose k-th column holds g_k
in the endpoint label's row, so F = Q_M G in each degree, one product;
stacked, F = G P_N.  F still goes through the checked ``ChainMap2``
constructor.  Each batch is one ``is_null_homotopic`` call on the
identity certificate of the block sum (``model_certificate`` of the
candidates' labels), and its witness is re-verified there.  Only a
batch that fails is tested again candidate by candidate; its first
failing candidate is the counterexample, which is the first failing
(label, generator index) in family order, since every earlier batch
passed.  The batch null test makes the decision, so no composition law
of the block generators is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

from .classify import (
    IndecompLabel,
    IndecompMultiset,
    decompose,
    label,
    model_certificate,
)
from .complexes import (
    ChainMap2,
    Triangle,
    TwoPeriodicComplex,
    cohomology,
    compose,
    cone,
    hom_module,
    is_null_homotopic,
    negate_map,
    scale_map,
    shift,
    shift_map,
)
from .errors import NotFiniteLengthError, PeriodicaError
from .fields import FieldSpec
from .localring import x_power
from .matrix import RMatrix
from .models import hom_pairs

# The most AR3 candidates in one null-homotopy test (module docstring).
# A batch of n candidates is a block sum of n test objects with an n x n
# identity certificate, so each product with it tests about n^2 entries:
# one batch for the whole family made ``ar-verify --i 3 --bound 1200``
# take 12 s and 282 MB, against 1.2-1.4 s and 33 MB for one test per
# candidate.  16 came out best in a sweep over 4, 8, 16, 32 and one
# batch: the ``ar-quiver`` benchmark gave 97 / 106 / 108.5 / 107 / 106
# jobs per second (84.4 with one test per candidate), and the CLI run
# above 1.02-1.04 s at 16, 1.04-1.15 s at 8 and 1.09-1.31 s at 32.
_AR3_BATCH = 16


def serre_functor(ms: IndecompMultiset) -> IndecompMultiset:
    """On labels the Serre functor flips the shift class; it is additive."""
    return IndecompMultiset.from_labels(
        IndecompLabel(not l.shifted, l.j) for l in ms.labels())


def _socle(i: int, field: FieldSpec) -> tuple:
    """(cn, cn1, h): the identity certificate cn of K(i), that of K(i)[1]
    (its shift) and the socle map h between their complexes."""
    if i < 1:
        raise ValueError("socle_map needs i >= 1")
    src = model_certificate([label(i)], field)
    dst = src.shifted()
    hm = hom_module(src.complex, dst.complex, (src, dst))
    if hm.free_rank != 0 or hm.factors != (i,):
        raise PeriodicaError("Hom(K(i), K(i)[1]) is not cyclic of length i")
    return src, dst, scale_map(hm.generators[0], x_power(field, i - 1))


def socle_map(i: int, field: FieldSpec) -> ChainMap2:
    """The socle generator of Hom(K(i), K(i)[1]) = R/x^i: x^(i-1) times a
    module generator.  Not null-homotopic; x times it is."""
    return _socle(i, field)[2]


@dataclass(frozen=True)
class ARTriangle(Triangle):
    """A triangle that carries its terms (module docstring): ``terms`` =
    ((multisets of N, M, E), (certificates of N, M, N[1], M[1])); E's
    multiset is read off its cohomology and E carries no certificate."""

    terms: tuple


def ar_triangle(i: int, field: FieldSpec) -> ARTriangle:
    """The AR-triangle K(i) -> E -> K(i) -> K(i)[1] with the socle
    connecting map; E is the cone of (-h)[-1], rotated to strict shape.
    N = M = K(i) is the complex of ``socle_map``'s certificate, which the
    triangle carries with that of K(i)[1]; E's labels are read off its
    cohomology (module docstring)."""
    if i < 1:
        raise ValueError("ar_triangle needs i >= 1")
    cn, cn1, h = _socle(i, field)
    n = cn.complex
    # (-h)[-1] = (-h)[1]: M[1] -> N[1][1] = N, between carried complexes
    e, u, v = cone(negate_map(shift_map(h, cn1.complex, n)))
    h0, h1 = cohomology(e)
    if h0.free_rank or h1.free_rank:
        raise NotFiniteLengthError("complex does not have finite-length cohomology")
    ms = IndecompMultiset.from_labels([label(i)])
    middle = IndecompMultiset.from_labels(
        [label(j) for j in h0.factors] + [label(j, True) for j in h1.factors])
    return ARTriangle(n=n, e=e, m=n, f=u, g=v, h=h,
                      terms=((ms, ms, middle), (cn, cn, cn1, cn1)))


def shift_triangle(t: ARTriangle) -> ARTriangle:
    """Image of an AR-triangle under the shift functor (all maps negated
    so the result is again exact), with the shifted terms: [1] flips every
    label's shift class, as the Serre functor does on labels, and
    X[1][1] = X, so the certificates (cn, cm, cn1, cm1) of (N, M, N[1],
    M[1]) serve (N[1], M[1], N, M).  N[1] and M[1] are the complexes of
    cn1 and cm1, and N[1][1] = N that of cn, so only E is shifted."""
    multisets, (cn, cm, cn1, cm1) = t.terms
    sn, se, sm = cn1.complex, shift(t.e), cm1.complex
    return ARTriangle(sn, se, sm,
                      *(negate_map(shift_map(u, sx, sy)) for u, sx, sy in (
                          (t.f, sn, se), (t.g, se, sm), (t.h, sm, cn.complex))),
                      terms=(tuple(serre_functor(ms) for ms in multisets),
                             (cn1, cm1, cn, cm)))


# ---------------------------------------------------------------------------
# AR axiom verification


@dataclass(frozen=True)
class ARReport:
    """Outcome of the AR axioms 1-3 on a triangle N -> E -> M -> N[1],
    read from the right (side "right", connecting map h) or from the left
    (side "left", connecting map w = -h[-1])."""

    triangle: Triangle
    side: str
    axioms: tuple  # (axiom 1 ok, axiom 2 ok, axiom 3 ok)
    middle: IndecompMultiset
    tested_family: tuple  # IndecompLabel lineup used for axiom 3
    counterexample: Optional[tuple]  # (IndecompLabel, generator index)

    @property
    def passed(self) -> bool:
        return all(self.axioms)


def _family(bound: int) -> List[IndecompLabel]:
    labs = [label(j, False) for j in range(1, bound + 1)]
    labs += [label(j, True) for j in range(1, bound + 1)]
    return labs


def _ar3_candidates(right: bool, family: list, end_labels: tuple):
    """The AR3 candidates in family order, in the label coordinates of
    the endpoint's certificate (labels ``end_labels``, of M on the right
    and of N on the left): for each test object D and each generator of
    Hom(D, M) (right) or Hom(N, D) (left), in the order of
    ``models.hom_pairs`` and so with the index of ``hom_module``'s closed
    form, (label of D, generator index, (the endpoint label's degree
    indices, power of x in degree 0, power in degree 1)), None for a
    zero component.  The powers are those of ``models.entry``, plus 1
    when D is the endpoint."""
    for lab in family:
        d = ((lab.j, lab.shifted),)
        # D = endpoint: End(K(j)) = R/x^j is local with radical x End, so
        # the non-isomorphisms between D and the endpoint are x Hom
        up = int(end_labels == d)
        pairs = hom_pairs(d, end_labels) if right else hom_pairs(end_labels, d)
        for idx, (a, b, (_, g, _)) in enumerate(pairs):
            yield lab, idx, (b if right else a,
                             *(None if k is None else k + up for k in g))


def _batch_map(end: TwoPeriodicComplex, end_cert, right: bool,
               batch: list) -> tuple:
    """(cb, F): cb the identity certificate of the block sum of the
    batch's test objects, and F the batch's candidates side by side out
    of it into M = ``end`` (right), or stacked from N = ``end`` into it
    (left), built through the checked ``ChainMap2`` constructor.  In each
    degree F is Q_M G (right) or G P_N (left) for the monomial matrix G
    of the candidates' powers, ``end_cert`` carrying P and Q: a test
    object carries the identity certificate, so these are the
    ``hom_module`` generators Q_M g P_D (or Q_D g P_N) of the candidates.
    Each test object K(j)[e] has one vector in each degree, the k-th
    candidate's being the k-th of the block sum in both."""
    field = end.field
    cb = model_certificate([lab for lab, _, _ in batch], field)
    n = len(batch)
    q = end_cert.from_blocks if right else end_cert.to_blocks
    mats = []
    for deg, qd in enumerate((q.f0, q.f1)):
        m = qd.cols if right else qd.rows  # the endpoint's block-sum rank
        g = [((ends[deg], k) if right else (k, ends[deg]),
              x_power(field, powers[deg]))
             for k, (_, _, (ends, *powers)) in enumerate(batch)
             if powers[deg] is not None]
        mats.append(qd @ RMatrix.from_cells(field, m, n, g) if right
                    else RMatrix.from_cells(field, n, m, g) @ qd)
    if right:
        return cb, ChainMap2(cb.complex, end, *mats)
    return cb, ChainMap2(end, cb.complex, *mats)


def _kills(t: Triangle, conn: ChainMap2, right: bool, batch: list,
           end_cert, null_end) -> bool:
    """Whether the connecting map ``conn`` kills every candidate of
    ``batch``, in one null-homotopy test (module docstring) of conn F on
    the right or F conn on the left, F the batch map of
    :func:`_batch_map`; ``end_cert`` is the certificate of M (right) or N
    (left) and ``null_end`` that of N[1] (right) or M[1] (left)."""
    cb, f = _batch_map(t.m if right else t.n, end_cert, right, batch)
    if right:
        return is_null_homotopic(compose(conn, f), (cb, null_end)) is not None
    return is_null_homotopic(compose(f, conn), (null_end, cb)) is not None


def _verify_ar(t: ARTriangle, bound: int, side: str) -> ARReport:
    """(AR1) endpoints indecomposable, (AR2) the connecting map c is not
    null-homotopic, (AR3) c kills every non-isomorphism between an
    endpoint and D, D running over K(j), K(j)[1] for j <= bound.
    AR1 and the middle term read the multisets that ``t`` carries, and
    every Hom and null-homotopy here reads its certificates, built where
    the terms were built (``ar_triangle``, ``shift_triangle``), or the
    identity certificate of a model block sum D, so nothing is
    decomposed and each answer is read off labels and valuations.

    AR3 reads its candidates off the ``models`` table in the label
    coordinates of the endpoint's certificate (:func:`_ar3_candidates`),
    with no Hom module built, and runs one null-homotopy test per batch
    of at most ``_AR3_BATCH`` candidates, built when the batch is tested:
    c kills a map out of (or into) a direct sum exactly when it kills
    each component.  Only a failing batch is tested again candidate by
    candidate, so the counterexample is the first failing (label,
    generator index) in family order, as a test of each candidate in
    turn would name it."""
    (n_ms, m_ms, middle), (cn, cm, cn1, cm1) = t.terms
    ax1 = n_ms.is_singleton() and m_ms.is_singleton()
    right = side == "right"
    # [1] is an involution, so -h[-1] = -h[1]: M[1] -> N[1][1] = N, the
    # complexes of the carried cm1 and cn
    conn = t.h if right else negate_map(shift_map(t.h, cm1.complex, cn.complex))
    ax2 = is_null_homotopic(conn, (cm, cn1) if right else (cm1, cn)) is None
    family = _family(bound)
    end_cert, null_end = (cm, cn1) if right else (cn, cm1)
    candidates = _ar3_candidates(right, family, end_cert.labels)
    counterexample = None
    for batch in iter(lambda: list(islice(candidates, _AR3_BATCH)), []):
        if _kills(t, conn, right, batch, end_cert, null_end):
            continue
        # every earlier batch passed: the first failure is in this one
        counterexample = next(
            c[:2] for c in batch
            if not _kills(t, conn, right, [c], end_cert, null_end))
        break
    return ARReport(t, side, (ax1, ax2, counterexample is None), middle,
                    tuple(family), counterexample)


def verify_right_ar(t: ARTriangle, bound: int) -> ARReport:
    """Right axioms: h t null-homotopic for every non-isomorphism t: D -> M."""
    return _verify_ar(t, bound, "right")


def verify_left_ar(t: ARTriangle, bound: int) -> ARReport:
    """Left axioms: s w null-homotopic for every non-isomorphism s: N -> D."""
    return _verify_ar(t, bound, "left")


def verify_ar(t: ARTriangle, bound: int) -> tuple:
    """(right report, left report), both reading the terms and
    certificates that ``t`` carries, so neither side decomposes; AR3
    reads its candidates in label coordinates (``_verify_ar``)."""
    return _verify_ar(t, bound, "right"), _verify_ar(t, bound, "left")


def serre_length_check(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> bool:
    """Length of Hom(X, Y) equals length of Hom(Y, F(X)) with the Serre
    functor realized through the classification: X and Y are decomposed
    once each, F(X) is the block sum of the flipped labels, and both
    lengths come from the certified closed form.  A homotopy equivalence
    keeps the length of Hom, so X and Y are replaced by their minimal
    models, which carry the certificates of ``decompose``."""
    try:
        dx, dy = decompose(x), decompose(y)
    except NotFiniteLengthError:
        raise NotFiniteLengthError(
            "Serre duality check needs finite length") from None
    cx, cy = dx.certificate, dy.certificate
    lhs = hom_module(cx.complex, cy.complex, (cx, cy)).length()
    cf = model_certificate(serre_functor(dx.multiset).labels(), x.field)
    rhs = hom_module(cy.complex, cf.complex, (cy, cf)).length()
    return lhs == rhs


# ---------------------------------------------------------------------------
# the AR-quiver


@dataclass(frozen=True)
class QuiverEdge:
    src: IndecompLabel
    dst: IndecompLabel
    mult: int


@dataclass(frozen=True)
class QuiverGraph:
    vertices: tuple  # IndecompLabel, canonical order
    edges: tuple     # QuiverEdge, sorted


@dataclass(frozen=True)
class QuiverResult:
    graph: QuiverGraph
    reports: tuple  # ARReport per (vertex) triangle, shift classes included
    verified: bool


def build_quiver(bound: int, field: FieldSpec) -> QuiverResult:
    """AR-triangles for K(i), i <= bound, and their shift images; every
    triangle is verified (axioms 1-3, bound i + 3) and edges are read off
    the middle terms: an arrow Z -> M with multiplicity the number of
    copies of Z in the middle of the verified triangle ending at M.  Each
    triangle carries its terms: ``ar_triangle`` reads E's labels off its
    cohomology, and ``shift_triangle`` carries its terms over to the
    shift image, since the shift is a triangle autoequivalence.  Each
    triangle is checked as by ``verify_right_ar``: its AR3 candidates are
    read in label coordinates, with no Hom module and no certificate per
    test object built."""
    if bound < 2:
        raise ValueError("quiver bound must be >= 2")
    reports = []
    edges = []
    for i in range(1, bound + 1):
        t = ar_triangle(i, field)
        for tri, target in ((t, label(i, False)),
                            (shift_triangle(t), label(i, True))):
            rep = _verify_ar(tri, i + 3, "right")
            reports.append(rep)
            for lab, mult in rep.middle.items:
                if lab.j <= bound:
                    edges.append(QuiverEdge(lab, target, mult))
    vertices = tuple(sorted(_family(bound)))
    graph = QuiverGraph(vertices, tuple(sorted(
        edges, key=lambda e: (e.src, e.dst))))
    return QuiverResult(graph, tuple(reports), all(r.passed for r in reports))


def quiver_dot(graph: QuiverGraph) -> str:
    lines = ["digraph ar_quiver {"]
    for v in graph.vertices:
        lines.append(f'  "{v.name}";')
    for e in graph.edges:
        lines.append(f'  "{e.src.name}" -> "{e.dst.name}" [mult={e.mult}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
