"""Strictification of quasi-periodic data and the window comparison maps."""

import importlib
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ambient_differential, is_invertible
from thelpers import mat, rechecked_complex

from periodica import (
    FieldMismatchError,
    FieldSpec,
    NotAComplexError,
    NotMinimalError,
    QuasiPeriodicData,
    RMatrix,
    TwoPeriodicComplex,
    invert,
    is_minimal,
    k_complex,
    strictify,
    window_chain_map,
)
from periodica.classify import decompose, label, IndecompMultiset
from periodica.rand import random_quasi_periodic

Q = FieldSpec.rationals()


def _identity_data(j):
    k = k_complex(j, Q)
    return QuasiPeriodicData(Q, 1, 1, alpha0=k.d0, alpha1=k.d1,
                             phi0=RMatrix.identity(Q, 1),
                             phi1=RMatrix.identity(Q, 1))


def test_strictify_identity_phi_is_verbatim():
    q = _identity_data(2)
    assert strictify(q) == k_complex(2, Q)


def test_strictify_rejects_non_complex():
    q = QuasiPeriodicData(Q, 1, 1,
                          alpha0=mat(Q, 1, 1, [["x"]]),
                          alpha1=mat(Q, 1, 1, [["x"]]),
                          phi0=mat(Q, 1, 1, [["1 + x"]]),
                          phi1=mat(Q, 1, 1, [["1 + x"]]))
    with pytest.raises(NotAComplexError):
        strictify(q)


def test_strictify_unit_denominator_example():
    q = QuasiPeriodicData(Q, 1, 1,
                          alpha0=mat(Q, 1, 1, [["0"]]),
                          alpha1=mat(Q, 1, 1, [["x^3"]]),
                          phi0=mat(Q, 1, 1, [["1 + x"]]),
                          phi1=mat(Q, 1, 1, [["1"]]))
    x = strictify(q)
    assert x.d0.is_zero()
    assert decompose(x).multiset == IndecompMultiset.from_labels([label(3, False)])


def test_window_identity_phi_all_identity():
    q = _identity_data(2)
    fs = window_chain_map(q, radius=3)
    for n, f in fs.items():
        if n == 0:
            continue  # f_0 = phi_0^{-1} = identity here as well
        assert f == RMatrix.identity(Q, 1)
    assert fs[0] == RMatrix.identity(Q, 1)


def test_window_first_values():
    q, _ = random_quasi_periodic(__import__("random").Random(5), Q)
    fs = window_chain_map(q, radius=3)
    assert fs[0] == invert(q.phi0)
    assert fs[1] == RMatrix.identity(Q, q.r1)
    assert fs[2] == RMatrix.identity(Q, q.r0)


def test_window_third_example_radius5():
    q = QuasiPeriodicData(Q, 1, 1,
                          alpha0=mat(Q, 1, 1, [["0"]]),
                          alpha1=mat(Q, 1, 1, [["x^3"]]),
                          phi0=mat(Q, 1, 1, [["1 + x"]]),
                          phi1=mat(Q, 1, 1, [["1"]]))
    fs = window_chain_map(q, radius=5)
    assert len(fs) == 11
    # independently re-verify the chain identity at every window position
    x = strictify(q)
    for n in range(-4, 5):
        lhs = ambient_differential(q, n - 1) @ fs[n - 1]
        rhs = fs[n] @ (x.d0 if (n - 1) % 2 == 0 else x.d1)
        assert (lhs - rhs).is_zero()


def test_random_quasi_periodic_instances(rng):
    for _ in range(8):
        q, expected = random_quasi_periodic(rng, Q)
        x = strictify(q)
        assert x == expected
        assert rechecked_complex(x) == x
        assert is_minimal(x)
        fs = window_chain_map(q, radius=4)
        for f in fs.values():
            assert is_invertible(f)


def test_random_quasi_periodic_prime_field(rng):
    f101 = FieldSpec.prime_field(101)
    for _ in range(4):
        q, expected = random_quasi_periodic(rng, f101)
        assert strictify(q) == expected
        window_chain_map(q, radius=3)


def test_strictify_rejects_unit_alpha0():
    # alpha1 alpha0 = 0 and alpha0 phi0^-1 alpha1 = 0, but alpha0 is a unit
    q = QuasiPeriodicData(Q, 1, 1,
                          alpha0=mat(Q, 1, 1, [["1"]]),
                          alpha1=mat(Q, 1, 1, [["0"]]),
                          phi0=mat(Q, 1, 1, [["1"]]),
                          phi1=mat(Q, 1, 1, [["1"]]))
    for fn in (strictify, window_chain_map):
        with pytest.raises(NotMinimalError) as exc:
            fn(q)
        assert str(exc.value) == "alpha entries must lie in the maximal ideal"


def test_window_matches_ambient_reference(rng):
    f101 = FieldSpec.prime_field(101)
    for field in (Q, f101):
        q, _ = random_quasi_periodic(rng, field)
        x = strictify(q)
        fs = window_chain_map(q, radius=4)
        for n in range(-3, 5):
            strict = x.d0 if (n - 1) % 2 == 0 else x.d1
            assert ambient_differential(q, n - 1) @ fs[n - 1] == fs[n] @ strict


def test_window_products_grow_linearly(monkeypatch):
    # one recursion each way: the product count is affine in the radius
    q, _ = random_quasi_periodic(Random(5), Q)
    real = RMatrix.__matmul__
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(RMatrix, "__matmul__", counting)
    counts = []
    for radius in (4, 8, 12):
        calls[0] = 0
        window_chain_map(q, radius=radius)
        counts.append(calls[0])
    assert counts[2] - counts[1] == counts[1] - counts[0]


@pytest.mark.parametrize("label_", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), radius=st.integers(1, 4))
def test_what_strictify_does_not_check_again(label_, seed, radius):
    # strictify builds its complex without the constructor's check and
    # window_chain_map does not test its maps for invertibility: both
    # hold by construction from what _validated_periods proved
    field = FieldSpec.from_label(label_)
    q, _ = random_quasi_periodic(Random(seed), field)
    x = strictify(q)
    assert rechecked_complex(x) == x
    fs = window_chain_map(q, radius=radius)
    assert len(fs) == 2 * radius + 1
    assert all(is_invertible(f) for f in fs.values())


def test_strictify_checks_the_composites_once(monkeypatch):
    q, _ = random_quasi_periodic(Random(5), Q)
    checks = []
    real = TwoPeriodicComplex.__post_init__
    monkeypatch.setattr(TwoPeriodicComplex, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    strictify(q)
    assert checks == []


def test_quasi_periodic_data_rejects_a_foreign_field():
    f3 = FieldSpec.prime_field(3)
    one = RMatrix.identity(Q, 1)
    with pytest.raises(FieldMismatchError):
        QuasiPeriodicData(f3, 1, 1, alpha0=mat(Q, 1, 1, [["0"]]),
                          alpha1=mat(Q, 1, 1, [["x"]]), phi0=one, phi1=one)


def test_strictify_window_validates_once(monkeypatch, capsys):
    # the CLI builds the complex and the window from one validation: the
    # two invert Smith forms and both composites are computed once
    from periodica.cli import main

    strictify_module = importlib.import_module("periodica.strictify")

    golden = Path(__file__).parent / "golden"
    calls = []
    real = strictify_module._validated_periods
    monkeypatch.setattr(strictify_module, "_validated_periods",
                        lambda q: calls.append(q) or real(q))
    assert main(["strictify", str(golden / "q_quasi.json"),
                 "--window", "6", "--format", "json"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == \
        (golden / "q_quasi.strictify-window6.json").read_text()
