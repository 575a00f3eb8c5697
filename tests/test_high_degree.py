"""High-degree inputs: entries of degree in the hundreds with large
coefficients (``thelpers.high_degree_complex``), on which re-checking
each closed-form Hom generator costs seconds.

The closed-form generators are built without a check; here every one is
re-checked through the ``ChainMap2`` constructor, and the certified Hom
is pinned to make no such check.  The CLI runs ``serre-check`` and
``homotopic`` on a degree-50 document within a timeout that only a hang
exceeds.  A degree-200 document made non-minimal and conjugated is
decomposed, so that both sweeps and the replay of their logs run on
entries of high degree.
"""

import json
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodica import (
    BlockSumCertificate,
    ChainMap2,
    FieldSpec,
    decompose,
    decomposition_certificate,
    direct_sum,
    hom_module,
)
from periodica.minimal import TrivialType, trivial_complex
from periodica.rand import conjugate_complex, random_finite_length_instance
from periodica.serialize import complex_to_doc

from test_io_cli import run_cli
from thelpers import high_degree_complex

FIELDS = ["Q", "Fp:3", "Fp:101"]


def _certified_hom(x, y):
    cx = decomposition_certificate(decompose(x))
    cy = cx if y is x else decomposition_certificate(decompose(y))
    return hom_module(x, y, (cx, cy))


@pytest.mark.parametrize("label_", FIELDS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degree=st.just(0))
@example(seed=1, degree=50)
@example(seed=2, degree=20)
def test_closed_form_generators_pass_the_checked_constructor(label_, seed,
                                                             degree):
    # degree 0: two random finite-length instances with trivial summands;
    # else two high-degree documents of three labels
    field = FieldSpec.from_label(label_)
    if degree:
        x = high_degree_complex(seed, field, n=3, degree=degree)
        y = high_degree_complex(seed + 1, field, n=3, degree=degree)
    else:
        rng = Random(seed)
        x = random_finite_length_instance(rng, field, max_labels=3)[0]
        y = random_finite_length_instance(rng, field, max_labels=3)[0]
    for src, dst in ((x, y), (x, x)):
        hm = _certified_hom(src, dst)
        if not degree:  # the Smith route takes minutes on high degrees
            assert hm.factors == hom_module(src, dst).factors
        for g in hm.generators:
            assert ChainMap2(src, dst, g.f0, g.f1) == g


@pytest.mark.parametrize("label_", ["Q", "Fp:101"])
def test_certified_hom_makes_no_chain_map_check(label_, monkeypatch):
    field = FieldSpec.from_label(label_)
    x = high_degree_complex(1, field)
    c = decomposition_certificate(decompose(x))
    checks = []
    real = ChainMap2.__post_init__
    monkeypatch.setattr(ChainMap2, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    hm = hom_module(x, x, (c, c))
    assert len(hm.generators) == 36 and checks == []


def test_cli_on_a_degree_50_document(tmp_path):
    # q_deg50 of the high-degree set: ranks (6, 6), degree 50 over Q
    doc = complex_to_doc(high_degree_complex(1, FieldSpec.rationals()))
    (tmp_path / "x.json").write_text(json.dumps(doc))
    square = [["x^2" if i == j else "0" for j in range(6)] for i in range(6)]
    (tmp_path / "f.json").write_text(json.dumps(
        {"src": "x.json", "dst": "x.json", "f0": square, "f1": square}))
    # both take about a second: running into the timeout means a hang
    r = run_cli("serre-check", "x.json", "x.json", cwd=tmp_path, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (
        0, "Serre lengths agree\n", "")
    r = run_cli("homotopic", "f.json", cwd=tmp_path, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (
        0, "null-homotopic (witness attached)\n", "")


def test_decompose_a_conjugated_non_minimal_document():
    # f_deg200 of the high-degree set plus one trivial summand of each
    # type, conjugated (a 14 KB document): reduce's two sweeps split off
    # both trivials from entries of high degree, and the certificate moved
    # to X passes the checked constructor
    field = FieldSpec.from_label("Fp:101")
    x, _, _ = conjugate_complex(Random(5), direct_sum(
        high_degree_complex(1, field, 6, 200),
        trivial_complex(TrivialType.TYPE1, 1, field),
        trivial_complex(TrivialType.TYPE2, 1, field)), max_val=2)
    dec = decompose(x)
    assert str(dec.multiset) == "2*K(1) + 2*K(2) + 2*K(1)[1]"
    assert (dec.split.type1, dec.split.type2) == (1, 1)
    c = decomposition_certificate(dec)
    assert BlockSumCertificate(c.labels, c.to_blocks, c.from_blocks,
                               c.contraction) == c
