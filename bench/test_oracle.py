"""Each oracle check accepts the program's answer and rejects a corrupted
one.  Run with ``python3 -m pytest bench/test_oracle.py``."""

import copy
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from periodica import (  # noqa: E402
    FieldSpec, Homotopy2, RMatrix, build_quiver, cli, elem, hom_module,
    identity_map, is_null_homotopic, parse_element, scale_map, serialize, x_power)
from periodica.localring import format_element  # noqa: E402

LABELS = [(2, False), (1, True), (3, True)]


def _instance(field, labels=LABELS, trivials=(0, 0), tag="t"):
    return gen.instance(Random(f"shape/{tag}"), Random(f"values/{tag}"), field,
                        labels, trivials, ops=4 * (len(labels) + sum(trivials)))


def _complex(inst):
    return serialize.parse_complex_doc(inst.doc())


def test_generator_output_is_a_valid_complex_with_its_labels():
    inst = _instance(gen.QQ, trivials=(1, 1))
    x = _complex(inst)  # validates d0 d1 = 0 and d1 d0 = 0
    assert (x.r0, x.r1) == (5, 5)
    assert inst.labels == tuple(sorted(LABELS)) and inst.trivials == (1, 1)


@pytest.mark.parametrize("p", [0, 101])
def test_parser_and_evaluator_agree_with_element_data(p):
    field = FieldSpec(p)
    rng = Random(3)
    for text in ["0", "1", "-3/2*x^2 + x", "(2 + x)/(1 + 5*x)", "x/(1 - x^2)"]:
        if p and "/" in text.replace("/(", ""):
            continue
        e = parse_element(field, text)
        ev = oracle.Evaluator(p, rng)
        assert ev.frac(*oracle.parse_elem(format_element(e))) == ev.frac(e.num, e.den)


def test_hom_check_rejects_a_changed_factor_and_a_free_part():
    ix, iy = _instance(gen.QQ, tag="x"), _instance(gen.QQ, [(2, True), (1, False)], tag="y")
    hm = hom_module(_complex(ix), _complex(iy))
    oracle.check_hom(ix.labels, iy.labels, hm.factors, hm.free_rank)
    bad = list(hm.factors)
    bad[0] += 1
    with pytest.raises(oracle.CheckFailed):
        oracle.check_hom(ix.labels, iy.labels, bad, hm.free_rank)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_hom(ix.labels, iy.labels, hm.factors, 1)


@pytest.mark.parametrize("field", [gen.QQ, gen.F101])
def test_null_homotopy_check_rejects_a_changed_witness_entry(field):
    """Change each witness entry in turn.  Witnesses are not unique, so
    some changes leave d s + s d = x^3 id true; the check must reject
    exactly the changes that the program's exact arithmetic rejects."""
    inst = _instance(field)
    x = _complex(inst)
    f = scale_map(identity_map(x), x_power(x.field, 3))
    h = is_null_homotopic(f)
    witness = (run._pairs(h.s0), run._pairs(h.s1))
    oracle.check_null_homotopy(inst, 3, witness, Random(0))
    one = x.field.one
    rejected = 0
    for k in (0, 1):
        for i in range(inst.rank):
            for j in range(inst.rank):
                bad = copy.deepcopy(witness)
                num, den = bad[k][i][j]
                bad[k][i][j] = (tuple(num) + (one,), den)
                mats = [h.s0, h.s1]
                ents = list(mats[k].entries)
                ents[i * inst.rank + j] = elem(x.field, tuple(num) + (one,), den)
                mats[k] = RMatrix(x.field, inst.rank, inst.rank, tuple(ents))
                if Homotopy2(x, x, *mats).witnesses(f):
                    oracle.check_null_homotopy(inst, 3, bad, Random(0))
                    continue
                rejected += 1
                with pytest.raises(oracle.CheckFailed):
                    oracle.check_null_homotopy(inst, 3, bad, Random(0))
    assert rejected >= inst.rank


def test_null_homotopy_check_rejects_a_wrong_verdict():
    inst = _instance(gen.QQ)
    x = _complex(inst)
    assert is_null_homotopic(scale_map(identity_map(x), x_power(x.field, 2))) is None
    oracle.check_null_homotopy(inst, 2, None, Random(0))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_null_homotopy(inst, 3, None, Random(0))
    h = is_null_homotopic(scale_map(identity_map(x), x_power(x.field, 3)))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_null_homotopy(inst, 2, (run._pairs(h.s0), run._pairs(h.s1)),
                                   Random(0))


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@pytest.fixture
def decomposed(tmp_path):
    inst = _instance(gen.F101, [(2, False), (1, True), (3, True), (1, False)], (2, 1))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(inst.doc()))
    argv = [str(path), "--field", "Fp:101", "--format", "json"]
    return inst, _cli_json(["decompose"] + argv), _cli_json(["cohomology"] + argv)


def test_decompose_check_rejects_a_changed_label_or_certificate(decomposed):
    inst, doc, _ = decomposed
    oracle.check_decompose(inst, doc, Random(0))
    bad = copy.deepcopy(doc)
    bad["multiset"][0]["j"] += 1
    with pytest.raises(oracle.CheckFailed):
        oracle.check_decompose(inst, bad, Random(0))
    for key in ("to_blocks", "from_blocks"):
        for part in ("f0", "f1"):
            bad = copy.deepcopy(doc)
            bad[key][part][1][2] = "1" if doc[key][part][1][2] == "0" else "0"
            with pytest.raises(oracle.CheckFailed):
                oracle.check_decompose(inst, bad, Random(0))


def test_cohomology_check_rejects_a_changed_factor(decomposed):
    inst, _, doc = decomposed
    oracle.check_cohomology(inst, doc)
    bad = copy.deepcopy(doc)
    bad["H1"]["factors"][0] += 1
    with pytest.raises(oracle.CheckFailed):
        oracle.check_cohomology(inst, bad)


def _quiver_data(result):
    g = result.graph
    return ([run._lab(v) for v in g.vertices],
            [(run._lab(e.src), run._lab(e.dst), e.mult) for e in g.edges],
            result.verified,
            [(run._target(r.triangle.m), run._counter(r.middle), r.passed)
             for r in result.reports])


def test_quiver_check_rejects_a_dropped_edge_or_wrong_multiplicity():
    vertices, edges, verified, reports = _quiver_data(build_quiver(3, FieldSpec(101)))
    oracle.check_quiver(3, vertices, edges, verified, reports)
    for k in range(len(edges)):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_quiver(3, vertices, edges[:k] + edges[k + 1:], verified, reports)
    src, dst, _ = edges[0]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_quiver(3, vertices, [(src, dst, 2)] + edges[1:], verified, reports)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_quiver(3, vertices, edges, verified,
                            reports[:1] + [(reports[1][0], Counter(), True)] + reports[2:])


def test_triangle_check_rejects_a_wrong_middle_or_failed_axiom():
    oracle.check_triangle(3, True, True, Counter({(2, False): 1, (4, False): 1}))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_triangle(3, True, True, Counter({(2, False): 1}))
    with pytest.raises(oracle.CheckFailed):
        oracle.check_triangle(3, True, False, Counter({(2, False): 1, (4, False): 1}))
