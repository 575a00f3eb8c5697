"""Auslander-Reiten theory of the finite-length homotopy category over
the DVR: Serre functor, socle maps, AR-triangles, mechanical
verification of the right/left AR axioms, and the AR-quiver.

Over the DVR the Serre functor acts on indecomposables by flipping the
shift class, so the AR-translate is the identity on labels.  The
AR-triangle ending at K(i) is built as the rotation of the strict cone
triangle on (-h)[-1] where h is the socle map K(i) -> K(i)[1]; with the
period-2 shift being a strict involution the rotated connecting map is
exactly h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .classify import (
    IndecompLabel,
    IndecompMultiset,
    assemble,
    decompose,
    finite_length_cohomology,
    is_homotopy_iso,
    k_complex,
    label,
    model_complex,
)
from .complexes import (
    ChainMap2,
    Triangle,
    TwoPeriodicComplex,
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
from .matrix import RMatrix, vstack
from .smith import solve_over_ring


def serre_functor(ms: IndecompMultiset) -> IndecompMultiset:
    """On labels the Serre functor flips the shift class; it is additive."""
    return IndecompMultiset.from_labels(
        IndecompLabel(not l.shifted, l.j) for l in ms.labels())


def translate(ms: IndecompMultiset) -> IndecompMultiset:
    """AR-translate = Serre functor composed with [-1]: fixes every label."""
    flipped = serre_functor(ms)
    return IndecompMultiset.from_labels(
        IndecompLabel(not l.shifted, l.j) for l in flipped.labels())


def socle_map(i: int, field: FieldSpec) -> ChainMap2:
    """The socle generator of Hom(K(i), K(i)[1]) = R/x^i: x^(i-1) times a
    module generator.  Not null-homotopic; x times it is."""
    if i < 1:
        raise ValueError("socle_map needs i >= 1")
    src = k_complex(i, field)
    dst = shift(k_complex(i, field))
    hm = hom_module(src, dst)
    if hm.free_rank != 0 or hm.factors != (i,):
        raise PeriodicaError("Hom(K(i), K(i)[1]) is not cyclic of length i")
    return scale_map(hm.generators[0], x_power(field, i - 1))


def ar_triangle(i: int, field: FieldSpec) -> Triangle:
    """The AR-triangle K(i) -> E -> K(i) -> K(i)[1] with the socle
    connecting map; E is the cone of (-h)[-1], rotated to strict shape."""
    if i < 1:
        raise ValueError("ar_triangle needs i >= 1")
    n = k_complex(i, field)
    m = k_complex(i, field)
    h = socle_map(i, field)
    e, u, v = cone(shift_map(negate_map(h)))
    return Triangle(n=n, e=e, m=m, f=u, g=v, h=h)


def shift_triangle(t: Triangle) -> Triangle:
    """Image of a triangle under the shift functor (all maps negated so
    the result is again exact)."""
    return Triangle(
        n=shift(t.n), e=shift(t.e), m=shift(t.m),
        f=negate_map(shift_map(t.f)),
        g=negate_map(shift_map(t.g)),
        h=negate_map(shift_map(t.h)),
    )


def verify_triangle(t: Triangle) -> bool:
    """Certify exactness of a candidate triangle.

    Fast path: the triangle literally is the rotation of the strict cone
    triangle on (-h)[-1] (this package's constructions are).  Otherwise a
    comparison map from that strict rotation to the candidate is solved
    for; if one exists and is a homotopy isomorphism the candidate is
    exact.  The check is sound; a False may also mean the solver found no
    certificate.
    """
    c, u, v = cone(shift_map(negate_map(t.h)))
    if t.e == c and t.f == u and t.g == v:
        return True
    # look for phi: c -> e with phi u ~ f and g phi ~ v, then demand
    # phi be a homotopy isomorphism
    phi = _solve_comparison(c, u, v, t)
    if phi is None:
        return False
    return is_homotopy_iso(phi)


def _solve_comparison(c: TwoPeriodicComplex, u: ChainMap2, v: ChainMap2,
                      t: Triangle) -> Optional[ChainMap2]:
    """Solve (chain map phi: c -> e) with phi u ~ t.f and t.g phi ~ v.

    One stacked linear system over R: unknowns are phi's two components
    and the two homotopy witnesses.
    """
    from .matrix import block, kron

    field = c.field
    e = t.e
    n_cols = {
        "phi0": e.r0 * c.r0, "phi1": e.r1 * c.r1,
        "s0": e.r1 * t.n.r0, "s1": e.r0 * t.n.r1,
        "t0": t.m.r1 * c.r0, "t1": t.m.r0 * c.r1,
    }
    order = ["phi0", "phi1", "s0", "s1", "t0", "t1"]
    offs = {}
    pos = 0
    for k in order:
        offs[k] = pos
        pos += n_cols[k]
    total = pos

    rows_list = []
    rhs_list = []

    def add_equation(coeffs: dict, rhs: RMatrix):
        nrows = rhs.rows * rhs.cols
        grid = []
        for k in order:
            if k in coeffs:
                grid.append(coeffs[k])
            else:
                grid.append(RMatrix.zeros(field, nrows, n_cols[k]))
        rows_list.append(block(field, [grid]))
        rhs_list.append(rhs.vec())

    def lmul(a: RMatrix, cols: int) -> RMatrix:
        # vec(a F) = (I_cols (x) a) vec F, F with `cols` columns
        return kron(RMatrix.identity(field, cols), a)

    def rmul(b: RMatrix, rows: int) -> RMatrix:
        # vec(F b) = (b^T (x) I_rows) vec F
        return kron(b.transpose(), RMatrix.identity(field, rows))

    z = RMatrix.zeros
    # chain map: e.d0 phi0 - phi1 c.d0 = 0 ; e.d1 phi1 - phi0 c.d1 = 0
    add_equation({"phi0": lmul(e.d0, c.r0), "phi1": -rmul(c.d0, e.r1)},
                 z(field, e.r1, c.r0))
    add_equation({"phi1": lmul(e.d1, c.r1), "phi0": -rmul(c.d1, e.r0)},
                 z(field, e.r0, c.r1))
    # phi u - t.f = d s + s d  (maps n -> e)
    add_equation({"phi0": rmul(u.f0, e.r0),
                  "s0": -lmul(e.d1, t.n.r0), "s1": -rmul(t.n.d0, e.r0)},
                 t.f.f0)
    add_equation({"phi1": rmul(u.f1, e.r1),
                  "s1": -lmul(e.d0, t.n.r1), "s0": -rmul(t.n.d1, e.r1)},
                 t.f.f1)
    # t.g phi - v = d t + t d  (maps c -> m)
    add_equation({"phi0": lmul(t.g.f0, c.r0),
                  "t0": -lmul(t.m.d1, c.r0), "t1": -rmul(c.d0, t.m.r0)},
                 v.f0)
    add_equation({"phi1": lmul(t.g.f1, c.r1),
                  "t1": -lmul(t.m.d0, c.r1), "t0": -rmul(c.d1, t.m.r1)},
                 v.f1)

    big = vstack(field, rows_list)
    rhs = vstack(field, rhs_list)
    sol = solve_over_ring(big, rhs)
    if sol is None:
        return None
    f0 = RMatrix.unvec(field, sol.submatrix(offs["phi0"],
                                            offs["phi0"] + n_cols["phi0"], 0, 1),
                       e.r0, c.r0)
    f1 = RMatrix.unvec(field, sol.submatrix(offs["phi1"],
                                            offs["phi1"] + n_cols["phi1"], 0, 1),
                       e.r1, c.r1)
    try:
        return ChainMap2(c, e, f0, f1)
    except Exception:
        return None


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


def _radical_tests(d_ms: IndecompMultiset, target_ms: IndecompMultiset,
                   gens, field: FieldSpec):
    """Generators to test in axiom 3: all of them unless D = target in the
    homotopy category, in which case iso generators are multiplied by x
    (the radical of the local endomorphism ring) and non-iso generators
    kept."""
    x = x_power(field, 1)
    if d_ms != target_ms:
        return list(enumerate(gens))
    out = []
    for idx, g in enumerate(gens):
        if is_homotopy_iso(g):
            out.append((idx, scale_map(g, x)))
        else:
            out.append((idx, g))
    return out


def _multisets(t: Triangle) -> tuple:
    """Decompositions (N, M, E) of a triangle's terms; N and M are the
    same K(i) in an AR-triangle, and then N's is reused."""
    n_ms = decompose(t.n).multiset
    m_ms = n_ms if t.m == t.n else decompose(t.m).multiset
    return n_ms, m_ms, decompose(t.e).multiset


def _verify_ar(t: Triangle, bound: int, side: str, multisets: tuple) -> ARReport:
    """(AR1) endpoints indecomposable, (AR2) the connecting map c is not
    null-homotopic, (AR3) c kills every non-isomorphism between an
    endpoint and D, D running over K(j), K(j)[1] for j <= bound.
    ``multisets`` are the decompositions of N, M and E."""
    field = t.n.field
    n_ms, m_ms, middle = multisets
    ax1 = n_ms.is_singleton() and m_ms.is_singleton()
    right = side == "right"
    # [1] is an involution, so -h[-1] = -h[1]: M[-1] -> N
    conn = t.h if right else negate_map(shift_map(t.h))
    ax2 = is_null_homotopic(conn) is None
    family = _family(bound)
    counterexample = None
    for lab in family:
        d = model_complex(lab, field)
        gens = (hom_module(d, t.m) if right else hom_module(t.n, d)).generators
        d_ms = IndecompMultiset.from_labels([lab])
        for idx, cand in _radical_tests(d_ms, m_ms if right else n_ms,
                                        gens, field):
            comp = compose(conn, cand) if right else compose(cand, conn)
            if is_null_homotopic(comp) is None:
                counterexample = (lab, idx)
                break
        if counterexample is not None:
            break
    return ARReport(t, side, (ax1, ax2, counterexample is None), middle,
                    tuple(family), counterexample)


def verify_right_ar(t: Triangle, bound: int) -> ARReport:
    """Right axioms: h t null-homotopic for every non-isomorphism t: D -> M."""
    return _verify_ar(t, bound, "right", _multisets(t))


def verify_left_ar(t: Triangle, bound: int) -> ARReport:
    """Left axioms: s w null-homotopic for every non-isomorphism s: N -> D."""
    return _verify_ar(t, bound, "left", _multisets(t))


def verify_ar(t: Triangle, bound: int) -> tuple:
    """(right report, left report), decomposing N, M and E once for both."""
    ms = _multisets(t)
    return _verify_ar(t, bound, "right", ms), _verify_ar(t, bound, "left", ms)


def serre_length_check(x: TwoPeriodicComplex, y: TwoPeriodicComplex) -> bool:
    """Length of Hom(X, Y) equals length of Hom(Y, F(X)) with the Serre
    functor realized through the classification."""
    if not (finite_length_cohomology(x) and finite_length_cohomology(y)):
        raise NotFiniteLengthError("Serre duality check needs finite length")
    lhs = hom_module(x, y).length()
    fx = assemble(serre_functor(decompose(x).multiset), x.field)
    rhs = hom_module(y, fx).length()
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
    copies of Z in the middle of the verified triangle ending at M."""
    if bound < 2:
        raise ValueError("quiver bound must be >= 2")
    reports = []
    edges = []
    for i in range(1, bound + 1):
        t = ar_triangle(i, field)
        for tri, target in ((t, label(i, False)),
                            (shift_triangle(t), label(i, True))):
            rep = verify_right_ar(tri, bound=i + 3)
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
