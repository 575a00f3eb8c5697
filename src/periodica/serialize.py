"""JSON document formats.

Complex document:
    {"field": "Q" | "Fp:<p>", "r0": int, "r1": int,
     "d0": [[elem]], "d1": [[elem]]}
with d0 an r1 x r0 grid and d1 an r0 x r1 grid of ring-element strings
(row-major).  Chain-map document: {"src": <complex or path>, "dst": ...,
"f0": [[elem]], "f1": [[elem]]}.  Quasi-periodic document mirrors the
complex format with keys alpha0, alpha1, phi0, phi1.  Multisets are
lists [{"j": int, "shifted": bool, "mult": int}].

Emitted documents re-parse to identical values (canonical element
strings).
"""

from __future__ import annotations

from typing import Callable, Optional

from .classify import IndecompLabel, IndecompMultiset
from .complexes import (
    ChainMap2,
    HomModule,
    Homotopy2,
    Triangle,
    TwoPeriodicComplex,
)
from .errors import (NotAComplexError, ParseError, PeriodicaError,
                     SizeLimitError, ValidationError)
from .fields import FieldSpec
from .localring import format_element, parse_element, zero
from .matrix import RMatrix
from .minimal import SplitResult
from .smith import SubquotientModule


# -- matrices ---------------------------------------------------------------

# Most coefficients beyond the first of each numerator and denominator in
# one parsed matrix: x^k costs k, a constant nothing, and 2^20 list slots
# are 8 MB of references.  MAX_EXPONENT bounds one entry only, so a 58 KB
# grid of 60 x 60 x^10000 would hold 36M and peak near 300 MB; the
# densest documents the tests parse (ranks (6, 6), degree 200) hold 47k.
MAX_MATRIX_COEFFICIENTS = 1 << 20


def matrix_to_grid(m: RMatrix) -> list:
    return [[format_element(m.at(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


def parse_matrix(field: FieldSpec, doc, rows: int, cols: int,
                 path: str) -> RMatrix:
    if not isinstance(doc, list) or len(doc) != rows:
        raise ParseError(f"{path}: expected {rows} rows")
    ents = []
    budget = MAX_MATRIX_COEFFICIENTS
    # Most cells of a document are "0".  Each is the field's shared zero,
    # as the grammar would give it, without a call, and costs no budget.
    z = zero(field)
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{path}[{i}]: expected {cols} entries")
        for j, cell in enumerate(row):
            if cell == "0":
                ents.append(z)
                continue
            if not isinstance(cell, str):
                raise ParseError(f"{path}[{i}][{j}]: entry must be a string")
            try:
                e = parse_element(field, cell)
            except PeriodicaError as exc:
                raise ParseError(f"{path}[{i}][{j}]: {exc}") from None
            budget -= max(len(e.num) - 1, 0) + len(e.den) - 1
            if budget < 0:
                raise SizeLimitError(f"{path}[{i}][{j}]: coefficients of positive "
                                     f"degree exceed {MAX_MATRIX_COEFFICIENTS}")
            ents.append(e)
    return RMatrix(field, rows, cols, tuple(ents))


# -- complexes ----------------------------------------------------------------


def complex_to_doc(x: TwoPeriodicComplex) -> dict:
    return {
        "field": x.field.label,
        "r0": x.r0,
        "r1": x.r1,
        "d0": matrix_to_grid(x.d0),
        "d1": matrix_to_grid(x.d1),
    }


def _field_of(doc: dict, expect: Optional[FieldSpec]) -> FieldSpec:
    if "field" not in doc:
        raise ParseError("$.field: missing")
    try:
        field = FieldSpec.from_label(doc["field"])
    except ParseError as exc:
        raise ParseError(f"$.field: {exc}") from None
    if expect is not None and field != expect:
        raise ParseError(
            f"$.field: document field {field.label} does not match {expect.label}")
    return field


def _is_int(v) -> bool:
    """A JSON integer: not a float, string or bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _ranks(doc: dict) -> tuple[int, int]:
    r0, r1 = doc.get("r0"), doc.get("r1")
    if not (_is_int(r0) and _is_int(r1)) or r0 < 0 or r1 < 0:
        raise ParseError("$.r0/$.r1: nonnegative integers required")
    return r0, r1


def parse_complex_doc(doc, expect_field: Optional[FieldSpec] = None
                      ) -> TwoPeriodicComplex:
    """The complex of a document.  Malformed documents raise ParseError;
    differentials that do not compose to zero raise ValidationError with
    the constructor's message, which ``validate`` reports as its
    verdict."""
    if not isinstance(doc, dict):
        raise ParseError("complex document must be a JSON object")
    field = _field_of(doc, expect_field)
    r0, r1 = _ranks(doc)
    d0 = parse_matrix(field, doc.get("d0"), r1, r0, "$.d0")
    d1 = parse_matrix(field, doc.get("d1"), r0, r1, "$.d1")
    try:
        return TwoPeriodicComplex(field, r0, r1, d0, d1)
    except NotAComplexError as exc:
        raise ValidationError(str(exc)) from None


# -- chain maps ---------------------------------------------------------------


def map_to_doc(f: ChainMap2) -> dict:
    """The components of a chain map, without its endpoints."""
    return {"f0": matrix_to_grid(f.f0), "f1": matrix_to_grid(f.f1)}


def parse_chain_map_doc(doc, expect_field: Optional[FieldSpec] = None,
                        loader: Optional[Callable] = None) -> ChainMap2:
    """``loader`` resolves string entries of src/dst (file paths) to
    parsed documents; inline objects are parsed directly."""
    if not isinstance(doc, dict):
        raise ParseError("chain-map document must be a JSON object")

    def end(key: str) -> TwoPeriodicComplex:
        sub = doc.get(key)
        if isinstance(sub, str):
            if loader is None:
                raise ParseError(f"$.{key}: path reference not supported here")
            sub = loader(sub)
        return parse_complex_doc(sub, expect_field)

    src = end("src")
    dst = end("dst")
    f0 = parse_matrix(src.field, doc.get("f0"), dst.r0, src.r0, "$.f0")
    f1 = parse_matrix(src.field, doc.get("f1"), dst.r1, src.r1, "$.f1")
    try:
        return ChainMap2(src, dst, f0, f1)
    except PeriodicaError as exc:
        raise ValidationError(f"not a chain map: {exc}") from None


def homotopy_to_doc(h: Homotopy2) -> dict:
    return {"s0": matrix_to_grid(h.s0), "s1": matrix_to_grid(h.s1)}


# -- quasi-periodic data ------------------------------------------------------


def parse_quasi_doc(doc, expect_field: Optional[FieldSpec] = None):
    from .strictify import QuasiPeriodicData

    if not isinstance(doc, dict):
        raise ParseError("quasi-periodic document must be a JSON object")
    field = _field_of(doc, expect_field)
    r0, r1 = _ranks(doc)
    return QuasiPeriodicData(
        field, r0, r1,
        alpha0=parse_matrix(field, doc.get("alpha0"), r1, r0, "$.alpha0"),
        alpha1=parse_matrix(field, doc.get("alpha1"), r0, r1, "$.alpha1"),
        phi0=parse_matrix(field, doc.get("phi0"), r0, r0, "$.phi0"),
        phi1=parse_matrix(field, doc.get("phi1"), r1, r1, "$.phi1"),
    )


# -- multisets and modules ----------------------------------------------------


def multiset_to_list(ms: IndecompMultiset) -> list:
    return [{"j": lab.j, "shifted": lab.shifted, "mult": mult}
            for lab, mult in ms.items]


def subquotient_to_doc(m: SubquotientModule) -> dict:
    return {"factors": list(m.factors), "free_rank": m.free_rank}


def hom_module_to_doc(hm: HomModule) -> dict:
    return {
        "factors": list(hm.factors),
        "free_rank": hm.free_rank,
        "generators": [map_to_doc(g) for g in hm.generators],
    }


def split_to_doc(s: SplitResult) -> dict:
    return {
        "minimal": complex_to_doc(s.minimal),
        "trivials": {"type1": s.type1, "type2": s.type2},
        "into": map_to_doc(s.into),
        "back": map_to_doc(s.back),
    }


def triangle_to_doc(t: Triangle) -> dict:
    return {
        "N": complex_to_doc(t.n),
        "E": complex_to_doc(t.e),
        "M": complex_to_doc(t.m),
        "f": map_to_doc(t.f),
        "g": map_to_doc(t.g),
        "h": map_to_doc(t.h),
    }


def label_to_doc(lab: IndecompLabel) -> dict:
    return {"j": lab.j, "shifted": lab.shifted, "name": lab.name}


def ar_report_to_doc(rep) -> dict:
    """Keys rar1..rar3 for the right axioms, lar1..lar3 for the left."""
    doc = {f"{rep.side[0]}ar{k}": ok for k, ok in enumerate(rep.axioms, 1)}
    doc.update({
        "passed": rep.passed,
        "middle": multiset_to_list(rep.middle),
        "tested_family": [label_to_doc(l) for l in rep.tested_family],
        "counterexample": None,
    })
    if rep.counterexample is not None:
        lab, idx = rep.counterexample
        doc["counterexample"] = {"label": label_to_doc(lab), "generator": idx}
    return doc


def quiver_to_doc(result) -> dict:
    return {
        "vertices": [label_to_doc(v) for v in result.graph.vertices],
        "edges": [
            {"src": label_to_doc(e.src), "dst": label_to_doc(e.dst),
             "mult": e.mult}
            for e in result.graph.edges
        ],
        "verified": result.verified,
    }
