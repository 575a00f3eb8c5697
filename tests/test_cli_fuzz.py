"""Random documents and argument vectors through ``cli.main``.

Every call keeps the exit-code contract (0 ok, 1 a verification failed,
2 bad input), prints no traceback and ends within a time bound.  The
documents have ranks 0-3; some are complexes, most are not, and some
are malformed (wrong shapes, non-string entries, bad element strings,
missing keys, foreign fields).  Files that are not JSON the reader
accepts, and matrices over the parse budget of coefficients, are input
errors too; the budget also bounds the parser's peak memory.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import (FieldSpec, ParseError, RMatrix, SizeLimitError,
                       TwoPeriodicComplex, parse_element)
from periodica.cli import main
from periodica.localring import zero
from periodica.serialize import (MAX_MATRIX_COEFFICIENTS, parse_complex_doc,
                                 parse_matrix)

FIELDS = ["Q", "Fp:3", "Fp:101"]
ENTRIES = st.sampled_from(
    ["0", "0", "1", "-1", "x", "x^2", "2*x", "x/(1+x)", "1/(1-x)"])
JUNK = st.sampled_from(
    [None, 0, [], "1/x", "x^-1", "y", "(", "", "1/0", "x^99999999999"])
COMPLEX = [("d0", "r1", "r0"), ("d1", "r0", "r1")]
QUASI = [("alpha0", "r1", "r0"), ("alpha1", "r0", "r1"),
         ("phi0", "r0", "r0"), ("phi1", "r1", "r1")]
CALL_SECONDS = 20


@st.composite
def grids(draw, rows, cols, diagonal=False):
    """A rows x cols grid of element strings (units on the diagonal when
    asked), now and then malformed."""
    grid = [["1" if diagonal and i == j else draw(ENTRIES)
             for j in range(cols)] for i in range(rows)]
    if draw(st.integers(0, 9)) == 0:
        if rows and cols:
            grid[draw(st.integers(0, rows - 1))][
                draw(st.integers(0, cols - 1))] = draw(JUNK)
        else:
            grid.append(["0"])
    return grid


@st.composite
def documents(draw, keys, field):
    """A document over ``field`` with ranks 0-3 and the given (key, rows,
    cols) grids, rows and cols naming ranks; now and then a key is
    dropped or a value replaced by one of another type or field."""
    r = {"r0": draw(st.integers(0, 3)), "r1": draw(st.integers(0, 3))}
    doc = {"field": field, **r}
    for key, rows, cols in keys:
        doc[key] = draw(grids(r[rows], r[cols], key.startswith("phi")))
    if keys is COMPLEX and draw(st.booleans()):
        # with one differential zero, both composites vanish
        key, rows, cols = draw(st.sampled_from(COMPLEX))
        doc[key] = [["0"] * r[cols] for _ in range(r[rows])]
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(st.sampled_from(
                [-1, 2.5, "Fp:4", "Fp:5", "Q", "3", None]))
    return doc


@st.composite
def calls(draw):
    """(argv, files): a command with its files, to be written to a
    directory, or a command without files whose options run from
    below to above their limits."""
    field = draw(st.sampled_from(FIELDS))
    fmt = ["--field", field,
           "--format", draw(st.sampled_from(["text", "json"]))]
    cx = documents(COMPLEX, field)
    kind = draw(st.sampled_from(["complex", "pair", "map", "quasi", "ar"]))
    if kind == "complex":
        cmd = draw(st.sampled_from(["validate", "reduce", "cohomology",
                                    "decompose", "shift", "dual"]))
        return [cmd, "a.json", *fmt], {"a.json": draw(cx)}
    if kind == "pair":
        cmd = draw(st.sampled_from(["sum", "tensor", "homc", "hom",
                                    "serre-check"]))
        return [cmd, "a.json", "b.json", *fmt], {
            "a.json": draw(cx), "b.json": draw(cx)}
    if kind == "map":
        cmd = draw(st.sampled_from(["cone", "homotopic"]))
        a, b = draw(cx), draw(cx)
        ranks = [max(d.get(k), 0) if isinstance(d.get(k), int) else 0
                 for d in (a, b) for k in ("r0", "r1")]
        fmap = {"src": "a.json", "dst": draw(st.sampled_from(["b.json", b])),
                "f0": draw(grids(ranks[2], ranks[0])),
                "f1": draw(grids(ranks[3], ranks[1]))}
        return [cmd, "f.json", *fmt], {"a.json": a, "b.json": b,
                                       "f.json": fmap}
    if kind == "quasi":
        window = str(draw(st.integers(-1, 9).map(lambda w: min(w, 3))))
        return (["strictify", "q.json", "--window", window, *fmt],
                {"q.json": draw(documents(QUASI, field))})
    cmd = draw(st.sampled_from(["ar-triangle", "ar-verify", "quiver"]))
    big = st.sampled_from([10**4, 10**9])
    if cmd == "quiver":
        opts = ["--max", str(draw(st.integers(-1, 5) | big))]
    else:
        opts = ["--i", str(draw(st.integers(-1, 5) | big))]
        if cmd == "ar-verify" and draw(st.booleans()):
            opts += ["--bound", str(draw(st.integers(-1, 6) | big))]
    return [cmd, *opts, *fmt], {}


def _run(argv, files):
    """(exit code, stdout, stderr, seconds) of ``main`` on ``argv``, its
    file names written to a fresh directory: as JSON, or as they are
    when given as bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            (Path(tmp) / name).write_bytes(
                doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


@settings(max_examples=300, deadline=None)
@given(call=calls())
def test_cli_keeps_the_exit_code_contract(call):
    code, out, err, seconds = _run(*call)
    assert code in (0, 1, 2), (call, code)
    assert "Traceback" not in err
    assert seconds < CALL_SECONDS, (call, seconds)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")


# d1 d0 = x: only validate reports it as its verdict
NON_COMPLEX = {"field": "Q", "r0": 1, "r1": 1, "d0": [["1"]], "d1": [["x"]]}
K1 = {"field": "Q", "r0": 1, "r1": 1, "d0": [["0"]], "d1": [["x"]]}


@pytest.mark.parametrize("argv", [
    ["reduce", "a.json"], ["cohomology", "a.json"], ["decompose", "a.json"],
    ["shift", "a.json"], ["dual", "a.json"], ["sum", "k.json", "a.json"],
    ["tensor", "a.json", "k.json"], ["homc", "a.json", "a.json"],
    ["hom", "k.json", "a.json"], ["serre-check", "a.json", "k.json"],
    ["cone", "f.json"], ["homotopic", "f.json"]], ids=lambda a: a[0])
def test_non_complex_documents_are_input_errors(argv):
    fmap = {"src": "a.json", "dst": "a.json", "f0": [["0"]], "f1": [["0"]]}
    files = {"a.json": NON_COMPLEX, "k.json": K1, "f.json": fmap}
    for fmt in ("text", "json"):
        assert _run(argv + ["--format", fmt], files)[:3] == (
            2, "", "error: d1*d0 has nonzero entry at (0, 0)\n")


def test_validate_reports_a_non_complex_as_its_verdict():
    files = {"a.json": NON_COMPLEX}
    assert _run(["validate", "a.json"], files)[:3] == (
        1, "invalid: d1*d0 has nonzero entry at (0, 0)\n", "")
    code, out, err, _ = _run(["validate", "a.json", "--format", "json"],
                             files)
    assert (code, json.loads(out), err) == (1, {
        "valid": False,
        "violation": "d1*d0 has nonzero entry at (0, 0)"}, "")


# a byte that is not UTF-8, and an integer of more digits than int()
# converts: both are ValueErrors of the reader, not verdicts
UNREADABLE = {
    "not-utf8": b'{"field": "Q", "r0": 1\xff}',
    "long-int": b'{"field": "Q", "r0": 1' + b"0" * 5000
                + b', "r1": 1, "d0": [["0"]], "d1": [["x"]]}'}


@pytest.mark.parametrize("bad", sorted(UNREADABLE))
@pytest.mark.parametrize("argv", [
    ["validate", "bad.json"], ["cone", "bad.json"], ["cone", "f.json"]],
    ids=["validate", "cone", "cone-src"])
def test_unreadable_documents_are_input_errors(argv, bad):
    # cone-src: the map document is fine, the src it refers to is not
    fmap = {"src": "bad.json", "dst": "k.json", "f0": [["0"]],
            "f1": [["0"]]}
    files = {"bad.json": UNREADABLE[bad], "k.json": K1, "f.json": fmap}
    code, out, err, _ = _run(argv, files)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "invalid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label_", ["Q", "Fp:101"])
def test_bad_coefficient_error_is_bounded(label_):
    # a 5,000-digit coefficient is more than int() converts: the error
    # names the entry and the token's first 20 characters, not all of it
    doc = {"field": label_, "r0": 1, "r1": 1, "d0": [["0"]],
           "d1": [["1" * 5000 + "*x"]]}
    code, out, err, _ = _run(["validate", "a.json", "--field", label_],
                             {"a.json": doc})
    assert (code, out) == (2, "")
    assert err == (f"error: $.d1[0][0]: bad coefficient {'1' * 20!r} "
                   f"over {label_}\n")
    assert len(err.encode()) < 200


# runs the CLI as a child and reports its peak RSS in KB, as CI does
PEAK = ("import json, resource, subprocess, sys\n"
        "r = subprocess.run([sys.executable, '-m', 'periodica.cli',"
        " *sys.argv[1:]], capture_output=True, text=True)\n"
        "print(json.dumps([r.returncode, r.stdout, r.stderr,"
        " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))\n")


def test_high_exponents_stop_at_the_parse_budget(tmp_path):
    # 58 KB: a 60 x 60 grid of x^10000 held 36M coefficients and peaked
    # near 300 MB before the budget
    doc = {"field": "Q", "r0": 60, "r1": 60, "d0": [["0"] * 60] * 60,
           "d1": [["x^10000"] * 60] * 60}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", PEAK, "validate", str(path)],
                         capture_output=True, text=True, env=env,
                         timeout=CALL_SECONDS, check=True)
    code, out, err, peak_kb = json.loads(run.stdout)
    assert (code, out) == (2, "")
    assert err.startswith("error: $.d1[") and "Traceback" not in err
    assert peak_kb < 64 * 1024


@pytest.mark.parametrize("label_", FIELDS)
def test_parse_budget_counts_coefficients_of_positive_degree(label_):
    # x^k costs k, a denominator its degree, zeros and constants nothing;
    # a matrix at the budget parses and one coefficient more does not
    field = FieldSpec.from_label(label_)
    rest = MAX_MATRIX_COEFFICIENTS - 104 * 10_000 - 1
    row = ["0", "3"] + ["x^10000"] * 104
    at = row + [f"x^{rest}/(1 + x)"]
    assert parse_matrix(field, [at], 1, 107, "$.m").rows == 1
    with pytest.raises(SizeLimitError, match=r"^\$\.m\[0\]\[106\]: "):
        parse_matrix(field, [row + [f"x^{rest + 1}/(1 + x)"]], 1, 107, "$.m")


@pytest.mark.parametrize("label_", FIELDS)
def test_zero_cells_parse_to_the_complex_of_their_elements(label_):
    # a cell "0" is zero without the grammar; every other spelling of
    # zero goes through it, and the complex is the one the cells'
    # elements make
    field = FieldSpec.from_label(label_)
    spellings = ["0", " 0", "+0", "-0", "0*x", "0/(1)"]
    d0 = [["x" if i == j else spellings[(i + j) % 6] for j in range(6)]
          for i in range(6)]
    d1 = [[spellings[(i * j) % 6] for j in range(6)] for i in range(6)]
    doc = {"field": label_, "r0": 6, "r1": 6, "d0": d0, "d1": d1}
    want = TwoPeriodicComplex(field, 6, 6, *(
        RMatrix(field, 6, 6, tuple(parse_element(field, c)
                                   for row in grid for c in row))
        for grid in (d0, d1)))
    assert parse_complex_doc(doc) == want
    for cell in spellings:
        assert parse_element(field, cell) == zero(field)


@pytest.mark.parametrize("cell", [0, 0.0, None, False, [], ["0"]])
def test_a_cell_that_is_not_a_string_is_a_parse_error(cell):
    with pytest.raises(ParseError,
                       match=r"^\$\.d0\[1\]\[0\]: entry must be a string$"):
        parse_matrix(FieldSpec(0), [["0"], [cell]], 2, 1, "$.d0")
