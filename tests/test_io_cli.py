"""Document round trips and the command-line front end (exit codes,
determinism, formats)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thelpers import chain_map_to_doc, quasi_to_doc

from periodica import (
    FieldSpec,
    ParseError,
    ValidationError,
    direct_sum,
    k_complex,
    shift,
)
from periodica.rand import random_finite_length_instance
from periodica.serialize import (
    complex_to_doc,
    parse_chain_map_doc,
    parse_complex_doc,
    parse_quasi_doc,
)

Q = FieldSpec.rationals()
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, cwd=None, timeout=None):
    # An absolute src entry keeps the package importable when cwd moves.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "periodica.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout)


def test_complex_doc_roundtrip(rng):
    for _ in range(10):
        x, _, _ = random_finite_length_instance(rng, Q, max_labels=3, max_j=3)
        doc = complex_to_doc(x)
        again = parse_complex_doc(json.loads(json.dumps(doc)))
        assert again == x


def test_parse_complex_k2():
    doc = {"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]], "d1": [["x^2"]]}
    assert parse_complex_doc(doc) == k_complex(2, Q)


def test_parse_complex_zero_ranks():
    doc = {"field": "Q", "r0": 0, "r1": 0, "d0": [], "d1": []}
    x = parse_complex_doc(doc)
    assert (x.r0, x.r1) == (0, 0)


def test_parse_complex_bad_entry_located():
    doc = {"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]], "d1": [["1/x"]]}
    with pytest.raises(ParseError) as exc:
        parse_complex_doc(doc)
    assert "$.d1[0][0]" in str(exc.value)


def test_parse_complex_validation_error():
    doc = {"field": "Q", "r0": 1, "r1": 1, "d0": [["1"]], "d1": [["1"]]}
    with pytest.raises(ValidationError):
        parse_complex_doc(doc)


def test_chain_map_doc_roundtrip():
    from periodica import identity_map
    f = identity_map(direct_sum(k_complex(1, Q), shift(k_complex(2, Q))))
    doc = chain_map_to_doc(f)
    assert parse_chain_map_doc(json.loads(json.dumps(doc))) == f


def test_quasi_doc_roundtrip(rng):
    from periodica.rand import random_quasi_periodic
    q, _ = random_quasi_periodic(rng, Q)
    assert parse_quasi_doc(json.loads(json.dumps(quasi_to_doc(q)))) == q


# -- CLI ---------------------------------------------------------------------------


@pytest.fixture
def k2_file(tmp_path):
    doc = {"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]], "d1": [["x^2"]]}
    p = tmp_path / "k2.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_cli_validate_ok(k2_file):
    r = run_cli("validate", str(k2_file))
    assert r.returncode == 0


def test_cli_validate_violation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(
        {"field": "Q", "r0": 1, "r1": 1, "d0": [["1"]], "d1": [["1"]]}))
    r = run_cli("validate", str(p))
    assert r.returncode == 1


def test_cli_decompose(k2_file):
    r = run_cli("decompose", str(k2_file), "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["multiset"] == [{"j": 2, "shifted": False, "mult": 1}]


def test_cli_decompose_missing_file():
    r = run_cli("decompose", "/nonexistent/file.json")
    assert r.returncode == 2


def test_cli_decompose_infinite_length(tmp_path):
    p = tmp_path / "free.json"
    p.write_text(json.dumps(
        {"field": "Q", "r0": 1, "r1": 0, "d0": [], "d1": [[]]}))
    r = run_cli("decompose", str(p))
    assert r.returncode == 2


def test_cli_emitted_complex_reparses(k2_file, tmp_path):
    r = run_cli("dual", str(k2_file), "--format", "json")
    assert r.returncode == 0
    out = tmp_path / "dual.json"
    out.write_text(r.stdout)
    r2 = run_cli("validate", str(out))
    assert r2.returncode == 0


@pytest.mark.parametrize("argv", [
    ("ar-triangle", "--i", "0"),
    ("ar-verify", "--i", "0"),
    ("ar-verify", "--i", "2", "--bound", "0"),
    ("selftest", "--rounds", "-1"),
    ("quiver", "--max", "1"),
    ("strictify", "QUASI", "--window", "-2"),
])
def test_cli_argument_out_of_range(tmp_path, argv):
    quasi = tmp_path / "quasi.json"
    quasi.write_text(json.dumps(
        {"field": "Q", "r0": 1, "r1": 1, "alpha0": [["0"]],
         "alpha1": [["x^3"]], "phi0": [["1"]], "phi1": [["1"]]}))
    r = run_cli(*(str(quasi) if a == "QUASI" else a for a in argv))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["ar-triangle", "--i", "1001"], "--i must be <= 1000, got 1001"),
    (["ar-verify", "--i", "1001"], "--i must be <= 1000, got 1001"),
    (["ar-verify", "--i", "3", "--bound", "1201"],
     "--bound must be <= 1200, got 1201"),
    (["quiver", "--max", "101"], "--max must be <= 100, got 101"),
    (["ar-triangle", "--i", "10000000"], "--i must be <= 1000, got 10000000"),
    (["selftest", "--rounds", "251"], "--rounds must be <= 250, got 251"),
    (["strictify", str(Path(__file__).parent / "golden" / "q_quasi.json"),
      "--window", "181"], "--window must be <= 180, got 181"),
])
def test_cli_argument_above_its_limit(argv, message, capsys):
    from periodica.cli import main

    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["ar-triangle", "ar-verify"])
@pytest.mark.parametrize("label_, prefix", [("Q", "q"), ("Fp:101", "f101")])
def test_golden_ar_i1_json(command, label_, prefix, capsys):
    # i = 1, where E = K(2) has a Type1 trivial summand besides: the
    # goldens' provenance is in golden/README.md
    from periodica.cli import main

    assert main([command, "--i", "1", "--field", label_,
                 "--format", "json"]) == 0
    golden = Path(__file__).parent / "golden" / f"{prefix}.{command}-i1.json"
    assert capsys.readouterr().out == golden.read_text()


def test_cli_ar_verify_default_bound(capsys):
    from periodica.cli import main

    assert main(["ar-verify", "--i", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 5


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [
    (["quiver", "--max", "3", "--format", "json"], 0),
    (["selftest", "--rounds", "1"], 0),
    (["validate", "BAD"], 1),
])
def test_cli_closed_stdout_keeps_the_verdict(argv, code, tmp_path, capsys,
                                             monkeypatch):
    from periodica.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"field": "Q", "r0": 1, "r1": 1, "d0": [["1"]], "d1": [["1"]]}))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main([str(bad) if a == "BAD" else a for a in argv]) == code
    assert capsys.readouterr().err == ""


def test_cli_large_prime_field(tmp_path):
    label = "Fp:1000000000000000003"
    p = tmp_path / "k2.json"
    p.write_text(json.dumps(
        {"field": label, "r0": 1, "r1": 1, "d0": [["0"]], "d1": [["x^2"]]}))
    r = run_cli("validate", str(p), "--field", label, timeout=30)
    assert r.returncode == 0, r.stderr
    from periodica.fields import MAX_CHARACTERISTIC
    r = run_cli("validate", str(p), "--field", f"Fp:{MAX_CHARACTERISTIC}")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_cli_exponent_budget(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(
        {"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]],
         "d1": [["x^300000000"]]}))
    r = run_cli("validate", str(p))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "$.d1[0][0]" in r.stderr


def test_cli_deeply_nested_json(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    (tmp_path / "map.json").write_text(json.dumps(
        {"src": "deep.json", "dst": "deep.json", "f0": [], "f1": []}))
    for argv in (["validate", str(deep)], ["hom", str(deep), str(deep)],
                 ["homotopic", str(tmp_path / "map.json")]):
        r = run_cli(*argv, timeout=20)
        assert r.returncode == 2, r.stderr
        assert r.stderr == f"error: {deep}: JSON nested too deeply\n"


def test_cli_deeply_parenthesised_entry(tmp_path):
    n = 30000
    p = tmp_path / "parens.json"
    p.write_text(json.dumps({"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]],
                             "d1": [["(" * n + "x" + ")" * n]]}))
    r = run_cli("validate", str(p), timeout=20)
    assert r.returncode == 0, r.stderr


def test_cli_quiver_dot_and_exit():
    r = run_cli("quiver", "--max", "3", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.startswith("digraph ar_quiver")
    assert r.stdout.count("->") == 8


def test_cli_quiver_deterministic():
    a = run_cli("quiver", "--max", "3", "--format", "json")
    b = run_cli("quiver", "--max", "3", "--format", "json")
    assert a.stdout == b.stdout == a.stdout
    assert json.loads(a.stdout)["verified"] is True


def test_cli_ar_verify(k2_file):
    r = run_cli("ar-verify", "--i", "3", "--bound", "6", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["right"]["rar3"] is True


def test_cli_homotopic(tmp_path, k2_file):
    # x * id on K(2) is not null-homotopic; x^2 * id is
    from periodica import identity_map, scale_map, x_power
    k2 = k_complex(2, Q)
    f1 = scale_map(identity_map(k2), x_power(Q, 1))
    f2 = scale_map(identity_map(k2), x_power(Q, 2))
    p1 = tmp_path / "xid.json"
    p1.write_text(json.dumps(chain_map_to_doc(f1)))
    p2 = tmp_path / "x2id.json"
    p2.write_text(json.dumps(chain_map_to_doc(f2)))
    assert run_cli("homotopic", str(p1)).returncode == 1
    r = run_cli("homotopic", str(p2), "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["null_homotopic"] is True


def test_cli_chain_map_with_path_refs(tmp_path, k2_file):
    from periodica import Homotopy2, identity_map, scale_map, x_power
    from periodica.serialize import parse_matrix
    # src/dst resolve against the map file's directory, never the cwd.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    # x^2 * id on K(2)
    doc = {"src": "k2.json", "dst": "k2.json",
           "f0": [["x^2"]], "f1": [["x^2"]]}
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    r = run_cli("homotopic", str(p), "--format", "json", cwd=elsewhere)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["null_homotopic"] is True
    k2 = k_complex(2, Q)
    s0 = parse_matrix(Q, out["witness"]["s0"], 1, 1, "$.witness.s0")
    s1 = parse_matrix(Q, out["witness"]["s1"], 1, 1, "$.witness.s1")
    f = scale_map(identity_map(k2), x_power(Q, 2))
    assert Homotopy2(k2, k2, s0, s1).witnesses(f)

    # f0 = 0, f1 = x^2 breaks f0 d1 = d1 f1 (0 != x^4): an input error.
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(dict(doc, f0=[["0"]])))
    r = run_cli("homotopic", str(bad), cwd=elsewhere)
    assert r.returncode == 2
    assert "not a chain map: f0 d1 != d1 f1 at (0, 0): 0 != x^4" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_serre_check(k2_file, tmp_path):
    from periodica.serialize import complex_to_doc
    p = tmp_path / "k3.json"
    p.write_text(json.dumps(complex_to_doc(k_complex(3, Q))))
    r = run_cli("serre-check", str(k2_file), str(p))
    assert r.returncode == 0


def test_cli_selftest_deterministic():
    a = run_cli("selftest", "--rounds", "2", "--seed", "5")
    b = run_cli("selftest", "--rounds", "2", "--seed", "5")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_selftest_names_raising_and_failing_suites(monkeypatch, capsys):
    from periodica import selftest
    from periodica.cli import main

    def raises(rng, rounds):
        raise ValueError("boom")

    def fails(rng, rounds):
        return "bad"

    monkeypatch.setattr(selftest, "SUITES", [("smith-certificates", raises),
                                             ("duality", fails)])
    assert main(["selftest", "--rounds", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL smith-certificates (ValueError: boom)", "FAIL duality (bad)"]


def test_cli_strictify(tmp_path):
    doc = {"field": "Q", "r0": 1, "r1": 1,
           "alpha0": [["0"]], "alpha1": [["x^3"]],
           "phi0": [["1 + x"]], "phi1": [["1"]]}
    p = tmp_path / "quasi.json"
    p.write_text(json.dumps(doc))
    r = run_cli("strictify", str(p), "--window", "3", "--format", "json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["complex"]["d1"] == [["x^3"]]
    assert len(out["window"]) == 7


@pytest.mark.parametrize("r0, r1", [(-1, 0), (0, -1), (2.7, 0), (0, 1.0),
                                    ("0", 0), (False, 0), (0, None)])
def test_cli_strictify_rejects_negative_rank(tmp_path, r0, r1):
    doc = {"field": "Q", "r0": r0, "r1": r1,
           "alpha0": [], "alpha1": [[]], "phi0": [[]], "phi1": []}
    p = tmp_path / "quasi.json"
    p.write_text(json.dumps(doc))
    r = run_cli("strictify", str(p), "--window", "1")
    assert r.returncode == 2
    assert r.stderr == "error: $.r0/$.r1: nonnegative integers required\n"


def test_cli_field_mismatch(tmp_path, k2_file):
    r = run_cli("cohomology", str(k2_file), "--field", "Fp:5")
    assert r.returncode == 2


def test_cli_sum_tensor_homc(tmp_path, k2_file):
    r = run_cli("sum", str(k2_file), str(k2_file), "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["r0"] == 2
    r = run_cli("tensor", str(k2_file), str(k2_file), "--format", "json")
    assert json.loads(r.stdout)["r0"] == 2
    r = run_cli("hom", str(k2_file), str(k2_file), "--format", "json")
    assert json.loads(r.stdout)["factors"] == [2]


def test_cli_hom_text(tmp_path, capsys):
    # torsion summands R/x^a, then the free part as R^n; "0" when empty
    from periodica.cli import main

    docs = {
        "zero": {"r0": 0, "r1": 0, "d0": [], "d1": []},
        "free": {"r0": 1, "r1": 0, "d0": [], "d1": [[]]},
        "k2": {"r0": 1, "r1": 1, "d0": [["0"]], "d1": [["x^2"]]},
        "mixed": {"r0": 2, "r1": 1, "d0": [["0", "0"]],
                  "d1": [["0"], ["x^2"]]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"field": "Q", **doc}))
    for lhs, rhs, text in [("k2", "zero", "Hom = 0"),
                           ("k2", "k2", "Hom = R/x^2"),
                           ("free", "free", "Hom = R^1"),
                           ("free", "mixed", "Hom = R/x^2 + R^1")]:
        assert main(["hom", str(tmp_path / f"{lhs}.json"),
                     str(tmp_path / f"{rhs}.json")]) == 0
        assert capsys.readouterr().out == text + "\n"


def test_cli_main_repeated_in_one_process(tmp_path, k2_file, capsys,
                                          monkeypatch):
    # the parser is built once per process; repeated calls of main give
    # what one call per process gives, usage errors included
    from periodica.cli import main

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    argvs = [
        ["decompose", str(k2_file), "--format", "json"],
        ["cohomology", str(k2_file)],
        ["decompose"],  # argparse usage error
        ["hom", str(k2_file), str(tmp_path / "missing.json")],  # input error
    ]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    single = []
    for argv in argvs:
        r = run_cli(*argv)
        single.append((r.returncode, r.stdout, r.stderr))
    assert [code for code, *_ in single] == [0, 0, 2, 2]
    assert "usage: periodica decompose" in single[2][2]
    assert single[3][2].startswith("error: cannot read")
    for _ in range(2):
        for argv, expected in zip(argvs, single):
            assert in_process(argv) == expected


def _write_rank_60_zeros(tmp_path):
    # a 36 KB document of zeros whose Hom differentials would be
    # 7200 x 7200 each, and its zero endomorphism
    zeros = [["0"] * 60 for _ in range(60)]
    (tmp_path / "x.json").write_text(json.dumps(
        {"field": "Q", "r0": 60, "r1": 60, "d0": zeros, "d1": zeros}))
    (tmp_path / "f.json").write_text(json.dumps(
        {"src": "x.json", "dst": "x.json", "f0": zeros, "f1": zeros}))


@pytest.mark.parametrize("command", ["hom", "homc", "tensor"])
def test_cli_hom_size_limit_exits_2(command, tmp_path):
    _write_rank_60_zeros(tmp_path)
    r = run_cli(command, "x.json", "x.json", cwd=tmp_path, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        "error: Hom-complex differential of 7200 x 7200 = 51840000 entries "
        "exceeds the limit of 1048576"]


def test_cli_homotopic_on_large_zero_map_exits_0(tmp_path):
    # the null test builds no Hom complex, so the size budget is not hit
    _write_rank_60_zeros(tmp_path)
    r = run_cli("homotopic", "f.json", cwd=tmp_path, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (
        0, "null-homotopic (witness attached)\n", "")
