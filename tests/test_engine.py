"""The tracked basis behind every elimination, and golden certificates.

Random swap/scale/add sequences must keep p and q mutually inverse and
act on attached grids exactly as the product of the explicit elementary
matrices does.  The golden files under ``golden/`` hold the CLI JSON of
``reduce``, ``decompose`` and ``hom`` from before the elimination code
was unified, and of ``tensor`` and ``strictify --window 6`` from before
the tensor product was written through the Hom-complex writer; the
output must stay byte for byte the same.
"""

import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import FieldSpec, RMatrix, inverse, one, zero
from periodica.cli import main
from periodica.rand import random_element, random_matrix, random_unit
from periodica.smith import TrackedBasis

GOLDEN = Path(__file__).parent / "golden"


def _elementary(field, n, kind, i, j, c):
    """Explicit E and E^-1 of one step, built entry by entry."""
    z, o = zero(field), one(field)

    def build(fn):
        return RMatrix.build(field, n, n, fn)

    if kind == "swap":
        perm = list(range(n))
        perm[i], perm[j] = j, i
        e = build(lambda r, s: o if s == perm[r] else z)
        return e, e
    if kind == "scale":
        cinv = inverse(c)
        return (build(lambda r, s: (c if r == i else o) if r == s else z),
                build(lambda r, s: (cinv if r == i else o) if r == s else z))
    return (build(lambda r, s: o if r == s else c if (r, s) == (i, j) else z),
            build(lambda r, s: o if r == s else -c if (r, s) == (i, j) else z))


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tracked_basis_matches_elementary_products(label, seed):
    field = FieldSpec.from_label(label)
    rng = Random(seed)
    n = rng.randint(1, 5)
    row_grids0 = [random_matrix(rng, field, n, rng.randint(0, 3), max_val=2)
                  for _ in range(2)]
    col_grids0 = [random_matrix(rng, field, rng.randint(0, 3), n, max_val=2)
                  for _ in range(2)]
    row_grids = [m.to_grid() for m in row_grids0]
    col_grids = [m.to_grid() for m in col_grids0]
    basis = TrackedBasis(field, n, rows=row_grids, cols=col_grids)
    g = g_inv = RMatrix.identity(field, n)
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["swap", "scale", "add"] if n > 1 else ["scale"])
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        c = None
        if kind == "swap":
            basis.swap(i, j)
        elif kind == "scale":
            c = random_unit(rng, field)
            basis.scale(i, c)
        else:
            c = random_element(rng, field, max_val=2)
            basis.add(i, j, c)
        e, e_inv = _elementary(field, n, kind, i, j, c)
        g, g_inv = e @ g, g_inv @ e_inv
    p, q = basis.matrices()
    eye = RMatrix.identity(field, n)
    assert p @ q == eye and q @ p == eye
    assert (p, q) == (g, g_inv)
    for grid, m0 in zip(row_grids, row_grids0):
        assert RMatrix.from_grid(field, n, m0.cols, grid) == g @ m0
    for grid, m0 in zip(col_grids, col_grids0):
        assert RMatrix.from_grid(field, m0.rows, n, grid) == m0 @ g_inv


@pytest.mark.parametrize("name", ["q_rank5", "q_denominators", "f3_rank5"])
@pytest.mark.parametrize("command", ["reduce", "decompose", "hom"])
def test_golden_certificates(name, command, capsys):
    path = GOLDEN / f"{name}.json"
    field = json.loads(path.read_text())["field"]
    operands = [str(path)] * (2 if command == "hom" else 1)
    assert main([command, *operands, "--field", field, "--format", "json"]) == 0
    expected = (GOLDEN / f"{name}.{command}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, expected", [
    (["tensor", "q_tensor_lhs.json", "q_tensor_rhs.json"],
     "q_tensor_lhs.tensor.json"),
    (["strictify", "q_quasi.json", "--window", "6"],
     "q_quasi.strictify-window6.json"),
])
def test_golden_tensor_and_strictify(argv, expected, capsys):
    args = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    assert main([*args, "--field", "Q", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()
