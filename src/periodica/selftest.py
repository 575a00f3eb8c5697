"""Seeded, deterministic property suite behind the ``selftest`` command.

Each suite draws randomized instances from :mod:`periodica.rand`, checks
invariants across the whole stack (Smith certificates, splitting
certificates, classification round trips, duality, AR axioms), and
reports one line per suite.  A suite returns the detail of its first
failed check, or None when every check holds; :func:`run_selftest` names
the result from ``SUITES``, also when the suite raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Tuple

from .artheory import (ar_triangle, serre_length_check, socle_map,
                       verify_right_ar)
from .classify import (assemble, decompose, decomposition_certificate,
                       finite_length_cohomology, k_complex)
from .complexes import (
    delta_iso,
    dual,
    identity_map,
    is_null_homotopic,
    shift,
)
from .fields import FieldSpec
from .matrix import RMatrix
from .minimal import is_minimal, reduce
from .rand import (
    random_column,
    random_finite_length_instance,
    random_matrix,
    random_quasi_periodic,
)
from .smith import smith_normal_form, solve_over_ring
from .strictify import strictify, window_chain_map


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str = ""


def _fields() -> List[FieldSpec]:
    return [FieldSpec.rationals(), FieldSpec.prime_field(101)]


def _suite_smith(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(rounds):
        for field in _fields():
            a = random_matrix(rng, field, rng.randint(0, 4), rng.randint(0, 4))
            s = smith_normal_form(a)
            if not (s.u @ a @ s.v - s.d).is_zero():
                return "UAV != D"
            if not (s.u @ s.u_inv - RMatrix.identity(field, a.rows)).is_zero():
                return "U inverse"
            if not (s.v @ s.v_inv - RMatrix.identity(field, a.cols)).is_zero():
                return "V inverse"
            if list(s.exponents) != sorted(s.exponents):
                return "not ascending"
            b = random_column(rng, field, a.rows)
            sol = solve_over_ring(a, b)
            if sol is not None and not (a @ sol - b).is_zero():
                return "bad solution"
    return None


def _suite_classify(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(rounds):
        for field in _fields():
            x, ms, _ = random_finite_length_instance(rng, field)
            dec = decompose(x)
            if dec.multiset != ms:
                return f"{dec.multiset} != {ms}"
    return None


def _suite_minimal(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(rounds):
        for field in _fields():
            x, _, _ = random_finite_length_instance(rng, field)
            s = reduce(x)
            if not is_minimal(s.minimal):
                return "not minimal"
            if s.minimal.total_rank and \
                    is_null_homotopic(identity_map(s.minimal)) is not None:
                return "nonzero minimal is contractible"
    return None


def _suite_duality(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(rounds):
        for field in _fields():
            x, ms, _ = random_finite_length_instance(
                rng, field, max_labels=2, max_j=3, max_trivials=1)
            if not finite_length_cohomology(dual(x)):
                return "dual lost finiteness"
            y = assemble(ms, field)
            delta_iso(y, x)  # raises if the squares do not commute
    return None


def _suite_strictify(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(rounds):
        for field in _fields():
            q, expected = random_quasi_periodic(rng, field)
            x = strictify(q)
            if x != expected:
                return "unexpected output"
            window_chain_map(q, radius=4)  # raises on identity failure
    return None


def _suite_ar(rng: Random, rounds: int) -> Optional[str]:
    for _ in range(max(1, rounds // 4)):
        for field in _fields():
            i = rng.randint(1, 4)
            t = ar_triangle(i, field)
            # the verifiers read the terms t carries, and decompose
            # nothing: they are those of decomposing N = M and E
            dn, de = decompose(t.n), decompose(t.e)
            c = decomposition_certificate(dn)
            if t.h != socle_map(i, field) or t.terms != (
                    (dn.multiset, dn.multiset, de.multiset),
                    (c, c, c.shifted(), c.shifted())):
                return f"i={i}: carried terms"
            rep = verify_right_ar(t, bound=i + 2)
            if not rep.passed:
                return f"i={i}"
            j = rng.randint(1, 4)
            if not serre_length_check(k_complex(i, field),
                                      shift(k_complex(j, field))):
                return "serre lengths"
    return None


SUITES: List[Tuple[str, Callable[[Random, int], Optional[str]]]] = [
    ("smith-certificates", _suite_smith),
    ("classification-roundtrip", _suite_classify),
    ("minimal-model", _suite_minimal),
    ("duality", _suite_duality),
    ("strictify", _suite_strictify),
    ("ar-axioms", _suite_ar),
]


def run_selftest(seed: int = 0, rounds: int = 8) -> List[SuiteResult]:
    results = []
    for idx, (name, suite) in enumerate(SUITES):
        rng = Random((seed << 8) + idx)  # deterministic per suite and seed
        try:
            detail = suite(rng, rounds)
        except Exception as exc:  # a raised invariant is a failure, not a crash
            detail = f"{type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, detail is None, detail or ""))
    return results
