"""The tracked basis behind every elimination, and golden certificates.

Random sequences of swaps, scales and add batches (one row added to
several, or several rows added to one, as a pivot's clearing makes
them) must keep p and q mutually inverse and act on attached grids
exactly as the product of the explicit elementary matrices does; an
empty batch logs nothing.  The Smith sweep must take the pivots and log
the steps of the dense reference sweep, which pivots on the simplest
unit among the minimal-valuation entries, and reach the exponents of
the sweep that pivots on the first of them; a constant unit beside
1 + x keeps every Smith transform and ``reduce`` certificate free of
denominators.  The Smith transforms, replayed from the step log only
when read, must equal the same elementary products taken along the
sweep; their products with an operand, applied from the log, must equal
the products with the built transforms; and ``solve_over_ring`` and
``homology_invariants`` (which returns lifted generators beside the
module) must build no n x n transform, and ``cohomology``, which reads
only Smith exponents, must apply none at all.  The golden files under
``golden/`` hold the CLI JSON of ``reduce``, ``decompose`` and ``hom``
(their provenance is in ``golden/README.md``), of ``tensor`` and
``strictify --window 6`` from before the tensor product was written
through the Hom-complex writer, and the text and JSON of ``cohomology``
from before it read Smith exponents only; the output must stay byte for
byte the same, and the certificates in them must check on their own
terms.
"""

import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import (
    ChainMap2,
    DimensionMismatchError,
    FieldSpec,
    RMatrix,
    cohomology,
    direct_sum,
    inverse,
    is_null_homotopic,
    one,
    unit_part,
    x_power,
    x_shift,
    zero,
)
from periodica import smith
from periodica.classify import (
    IndecompLabel,
    IndecompMultiset,
    assemble,
    decompose,
)
from periodica.cli import main
from periodica.minimal import TrivialType, reduce, trivial_complex
from periodica.rand import (
    random_element,
    random_finite_length_instance,
    random_invertible,
    random_matrix,
)
from periodica.serialize import parse_complex_doc, parse_matrix
from periodica.smith import (
    TrackedBasis,
    homology_invariants,
    invert,
    smith_normal_form,
    smith_sweep,
    solve_over_ring,
)
from oracles import is_invertible
from thelpers import cx, mat, random_unit

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
        kind = rng.choice(["swap", "scale", "add from", "add into"])
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == "swap":
            basis.swap(i, j)
            steps = [("swap", i, j, None)]
        elif kind == "scale":
            c = random_unit(rng, field)
            basis.scale(i, c)
            steps = [("scale", i, i, c)]
        else:
            # row i added to several rows, as in a column clearing, or
            # several rows added to row i, as in a row clearing
            others = rng.sample([k for k in range(n) if k != i],
                                rng.randint(0, n - 1))
            batch = [((k, i) if kind == "add from" else (i, k))
                     + (random_element(rng, field, max_val=2),)
                     for k in others]
            logged = len(basis.steps)
            basis.add_batch(batch)
            assert len(basis.steps) == logged + bool(batch)  # [] logs nothing
            steps = [("add", *step) for step in batch]
        for step in steps:
            e, e_inv = _elementary(field, n, *step)
            g, g_inv = e @ g, g_inv @ e_inv
    p, q = basis.matrices()
    eye = RMatrix.identity(field, n)
    assert p @ q == eye and q @ p == eye
    assert (p, q) == (g, g_inv)
    for grid, m0 in zip(row_grids, row_grids0):
        assert RMatrix.from_grid(field, n, m0.cols, grid) == g @ m0
    for grid, m0 in zip(col_grids, col_grids0):
        assert RMatrix.from_grid(field, m0.rows, n, grid) == m0 @ g_inv


class _EagerBasis(TrackedBasis):
    """A tracked basis that also multiplies out G and G^-1 from the
    explicit elementary matrices at every step: the eager reference."""

    def __init__(self, field, n, rows=(), cols=()):
        super().__init__(field, n, rows=rows, cols=cols)
        self.g = self.g_inv = RMatrix.identity(field, n)

    def _push(self, kind, i, j, c):
        e, e_inv = _elementary(self.field, self.n, kind, i, j, c)
        self.g, self.g_inv = e @ self.g, self.g_inv @ e_inv

    def swap(self, i, j):
        super().swap(i, j)
        self._push("swap", i, j, None)

    def scale(self, i, unit):
        super().scale(i, unit)
        self._push("scale", i, i, unit)

    def add_batch(self, steps):
        super().add_batch(steps)
        for a, b, lam in steps:
            self._push("add", a, b, lam)


def _smith_input(rng, field, kind, rows, cols):
    if kind == "zero":
        return RMatrix.zeros(field, rows, cols)
    if kind == "deficient":  # rank at most min(rows, cols) - 1
        k = max(min(rows, cols) - 1, 0)
        return (random_matrix(rng, field, rows, k, max_val=2)
                @ random_matrix(rng, field, k, cols, max_val=2))
    return random_matrix(rng, field, rows, cols, max_val=3)


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "deficient", "full"]),
       rows=st.integers(0, 5), cols=st.integers(0, 5),
       order=st.permutations(["u", "u_inv", "v", "v_inv"]))
def test_lazy_smith_transforms_match_eager_reference(label, seed, kind,
                                                     rows, cols, order):
    field = FieldSpec.from_label(label)
    a = _smith_input(Random(seed), field, kind, rows, cols)
    s = smith_normal_form(a)
    work = a.to_grid()
    left = _EagerBasis(field, rows, rows=[work])
    right = _EagerBasis(field, cols, cols=[work])
    exps = smith_sweep(work, left, right)
    assert s.exponents == tuple(exps)
    assert s.d == RMatrix.from_grid(field, rows, cols, work)
    eager = {"u": left.g, "u_inv": left.g_inv,
             "v": right.g_inv, "v_inv": right.g}
    for name in order:  # each read order builds the same transforms
        assert getattr(s, name) == eager[name]
        assert getattr(s, name) is getattr(s, name)  # built once, kept
    assert s.u @ a @ s.v == s.d


def _dense_smith_sweep(work, rows, cols, start=0, simplest=True):
    """The dense sweep, as the reference: a row-major scan of the whole
    remaining submatrix for each pivot, and an add batch of one step per
    cleared entry.  The pivot is the first entry of least valuation and,
    with ``simplest``, of least unit part among those (numerator
    coefficients from x^v up plus denominator coefficients); without it,
    the first entry of least valuation, the rule before pivots were
    chosen by their unit part, kept as an oracle for the exponents."""
    nrows, ncols = rows.n, cols.n
    exps = []
    for t in range(start, min(nrows, ncols)):
        best, best_key = None, None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = work[i][j]
                if not e:
                    continue
                v = e.valuation
                key = (v, len(e.num) - v + len(e.den) if simplest else 0)
                if best is None or key < best_key:
                    best, best_key = (i, j), key
        if best is None:
            break
        rows.swap(best[0], t)
        cols.swap(best[1], t)
        pv = work[t][t].valuation
        unit = unit_part(work[t][t])
        if unit != one(rows.field):
            rows.scale(t, inverse(unit))
        for i in range(t + 1, nrows):
            if work[i][t]:
                rows.add_batch([(i, t, -x_shift(work[i][t], -pv))])
        for j in range(t + 1, ncols):
            if work[t][j]:
                cols.add_batch([(t, j, x_shift(work[t][j], -pv))])
        exps.append(pv)
    return exps


def _single_steps(log):
    """A step log with each add batch spelled out as batches of one."""
    return [entry for step, *args in log
            for entry in ([(step, [add]) for add in args[0]]
                          if step is smith._add_batch else [(step, *args)])]


def _row_major_smith_sweep(work, rows, cols, start=0):
    return _dense_smith_sweep(work, rows, cols, start, simplest=False)


def _sweep_input(rng, field, kind, rows, cols):
    if kind == "sparse":  # about one entry in four, some with denominators
        m = random_matrix(rng, field, rows, cols, max_val=3)
        return RMatrix(field, rows, cols, tuple(
            (e * inverse(random_unit(rng, field)) if rng.random() < 0.5
             else e) if rng.random() < 0.25 else zero(field)
            for e in m.entries))
    return _smith_input(rng, field, kind, rows, cols)


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "sparse", "deficient", "full"]),
       rows=st.integers(0, 7), cols=st.integers(0, 7),
       start=st.integers(0, 7))
def test_sweep_matches_dense_reference(label, seed, kind, rows, cols, start):
    # decompose's two sweeps: ``work`` from ``start`` on, then the grid
    # attached crosswise from where the first stopped; D, the exponents,
    # the crosswise grid and both step logs step for step, the sweep's
    # add batches against the reference's batches of one
    field = FieldSpec.from_label(label)
    rng = Random(seed)
    a = _sweep_input(rng, field, kind, rows, cols)
    b = _sweep_input(rng, field, kind, cols, rows)
    start = min(start, rows, cols)
    runs = []
    for sweep in (smith_sweep, _dense_smith_sweep):
        work, other = a.to_grid(), b.to_grid()
        left = TrackedBasis(field, rows, rows=[work], cols=[other])
        right = TrackedBasis(field, cols, rows=[other], cols=[work])
        first = sweep(work, left, right, start)
        second = sweep(other, right, left, start + len(first))
        runs.append((first, second, work, other, _single_steps(left.steps),
                     _single_steps(right.steps)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "sparse", "deficient", "full"]),
       rows=st.integers(0, 7), cols=st.integers(0, 7),
       start=st.integers(0, 7))
def test_pivot_choice_leaves_exponents_alone(label, seed, kind, rows, cols,
                                             start):
    # the simplest-unit pivot against the first minimal-valuation one on
    # the block from (start, start) on: the same exponents, so the same
    # rank; from start 0 both end at the same diagonal D
    field = FieldSpec.from_label(label)
    a = _sweep_input(Random(seed), field, kind, rows, cols)
    start = min(start, rows, cols)
    runs = []
    for sweep in (smith_sweep, _row_major_smith_sweep):
        work = a.to_grid()
        exps = sweep(work, TrackedBasis(field, rows, rows=[work]),
                     TrackedBasis(field, cols, cols=[work]), start)
        runs.append((exps, work if start == 0 else None))
    assert runs[0] == runs[1]


def _denominator_free(*mats):
    return all(len(e.den) == 1 for m in mats for e in m.entries)


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
def test_sweep_pivots_on_a_constant_unit(label):
    # the first unit in row-major order is 1 + x; the constant 1 beside
    # it is the pivot, so no transform or form takes a denominator
    field = FieldSpec.from_label(label)
    a = mat(field, 2, 2, [["1 + x", "1"], ["1", "0"]])
    s = smith_normal_form(a)
    assert s.exponents == (0, 0)
    assert _denominator_free(s.d, s.u, s.v, s.u_inv, s.v_inv)
    assert s.u @ a @ s.v == s.d


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
def test_peel_pivots_on_a_constant_unit(label):
    # d1's first unit in row-major order is 1 + x; the peel takes the
    # constant 1 beside it, so the minimal model and both certificates
    # stay denominator-free
    field = FieldSpec.from_label(label)
    x = cx(field, 3, 3, [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "x"]],
           [["1 + x", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]])
    split = reduce(x)
    assert (split.type1, split.type2) == (2, 0)
    assert (split.minimal.r0, split.minimal.r1) == (1, 1)
    assert _denominator_free(split.minimal.d0, split.minimal.d1,
                             split.into.f0, split.into.f1,
                             split.back.f0, split.back.f1)


@pytest.mark.parametrize("label", ["Q", "Fp:3", "Fp:101"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["zero", "deficient", "full"]),
       rows=st.integers(0, 5), cols=st.integers(0, 5),
       width=st.sampled_from([0, 1, 3]))
def test_transform_products_match_transforms(label, seed, kind, rows, cols,
                                             width):
    # u m, u^-1 m, v m and v^-1 m applied from the step logs, entry for
    # entry against the product with the built transform
    field = FieldSpec.from_label(label)
    rng = Random(seed)
    a = _smith_input(rng, field, kind, rows, cols)
    s = smith_normal_form(a)
    for name, n in (("u", rows), ("u_inv", rows), ("v", cols),
                    ("v_inv", cols)):
        m = random_matrix(rng, field, n, width, max_val=2)
        assert getattr(s, f"{name}_times")(m) == getattr(s, name) @ m
    with pytest.raises(DimensionMismatchError):
        s.u_times(RMatrix.zeros(field, rows + 1, 1))


class _ApplyLog:
    """Records the operand shape of every ``smith._apply`` call and counts
    ``TrackedBasis.matrices`` calls.  An n x n transform is built exactly
    when ``_apply`` runs on an identity; ``matrices`` builds two."""

    def __init__(self, monkeypatch):
        self.calls, self.matrices_calls = [], 0
        real_apply, real_matrices = smith._apply, TrackedBasis.matrices

        def apply(field, steps, m, inverse):
            eye = m.rows == m.cols and m == RMatrix.identity(field, m.rows)
            self.calls.append((m.rows, m.cols, eye))
            return real_apply(field, steps, m, inverse)

        def matrices(basis):
            self.matrices_calls += 1
            return real_matrices(basis)

        monkeypatch.setattr(smith, "_apply", apply)
        monkeypatch.setattr(TrackedBasis, "matrices", matrices)

    @property
    def smith_transforms(self) -> int:
        return sum(eye for *_, eye in self.calls) - 2 * self.matrices_calls

    def shapes_since(self, k: int) -> list:
        return [(rows, cols) for rows, cols, _ in self.calls[k:]]


@pytest.mark.parametrize("label", ["Q", "Fp:101"])
def test_transforms_are_built_only_when_read(label, monkeypatch):
    field = FieldSpec.from_label(label)
    rng = Random(3)
    x, _, trivials = random_finite_length_instance(
        rng, field, max_labels=3, max_j=3, max_trivials=2)
    assert trivials == (1, 1)
    a = random_matrix(rng, field, 4, 4, max_val=2)
    g, _ = random_invertible(rng, field, 4)
    log = _ApplyLog(monkeypatch)
    smith_normal_form(a).rank
    is_invertible(a)
    counts = {"checks": 0, "products": 0}
    real_check, real_matmul = ChainMap2.__post_init__, RMatrix.__matmul__

    def check(f):
        counts["checks"] += 1
        real_check(f)

    def matmul(m, n):
        counts["products"] += 1
        return real_matmul(m, n)

    with monkeypatch.context() as patch:
        patch.setattr(ChainMap2, "__post_init__", check)
        patch.setattr(RMatrix, "__matmul__", matmul)
        decompose(x)
    # reduce's two bases, the one checked chain map back (two products
    # per square) and p q = I in each degree: the certificate of the
    # minimal model is its identity
    assert log.smith_transforms == 0 and log.matrices_calls == 2
    assert counts == {"checks": 1, "products": 6}
    s = smith_normal_form(a)
    for _ in range(2):
        s.u, s.u_inv, s.v, s.v_inv
    assert log.smith_transforms == 4
    # cohomology reads only the exponents: no product with a transform
    k = len(log.calls)
    cohomology(x)
    assert log.shapes_since(k) == [] and log.smith_transforms == 4
    assert log.matrices_calls == 2
    # v^-1 b, u2^-1 on the generator columns and v on their lifts: no
    # identity operand, so no transform built
    _, gens = homology_invariants(x.d0, x.d1)
    ngen = len(gens)
    assert log.shapes_since(k) == [
        (x.r0, x.r1), (x.r0 - smith_normal_form(x.d0).rank, ngen), (x.r0, ngen)]
    assert 0 < ngen < x.r0 and log.smith_transforms == 4
    k = len(log.calls)
    solve_over_ring(a, a.submatrix(0, 4, 0, 1))  # u b and v y, 1 column
    assert log.shapes_since(k) == [(4, 1), (4, 1)]
    assert log.smith_transforms == 4
    k = len(log.calls)
    assert invert(g) @ g == RMatrix.identity(field, 4)
    assert log.smith_transforms == 5  # u, then v applied to it
    assert log.shapes_since(k) == [(4, 4), (4, 4)]


@pytest.mark.parametrize("name", ["q_rank5", "q_denominators", "f3_rank5"])
@pytest.mark.parametrize("command", ["reduce", "decompose", "hom"])
def test_golden_certificates(name, command, capsys):
    path = GOLDEN / f"{name}.json"
    field = json.loads(path.read_text())["field"]
    operands = [str(path)] * (2 if command == "hom" else 1)
    assert main([command, *operands, "--field", field, "--format", "json"]) == 0
    expected = (GOLDEN / f"{name}.{command}.json").read_text()
    assert capsys.readouterr().out == expected


def _golden_map(doc, src, dst):
    f0 = parse_matrix(src.field, doc["f0"], dst.r0, src.r0, "$.f0")
    f1 = parse_matrix(src.field, doc["f1"], dst.r1, src.r1, "$.f1")
    return ChainMap2(src, dst, f0, f1)  # checks both commuting squares


def _mutually_inverse(f, g):
    return all(
        a @ b == RMatrix.identity(a.field, a.rows) and
        b @ a == RMatrix.identity(a.field, a.cols)
        for a, b in ((f.f0, g.f0), (f.f1, g.f1)))


@pytest.mark.parametrize("name", ["q_rank5", "q_denominators", "f3_rank5"])
def test_golden_certificates_verify(name):
    # the golden certificates checked on their own terms: reduce's and
    # decompose's maps are mutually inverse chain maps between the right
    # complexes, and each Hom generator g with factor f has x^f g null-
    # homotopic and x^(f-1) g not
    x = parse_complex_doc(json.loads((GOLDEN / f"{name}.json").read_text()))
    field = x.field

    def golden(command):
        return json.loads((GOLDEN / f"{name}.{command}.json").read_text())

    doc = golden("reduce")
    m = parse_complex_doc(doc["minimal"], field)
    parts = [m] + [trivial_complex(kind, doc["trivials"][key], field)
                   for kind, key in ((TrivialType.TYPE1, "type1"),
                                     (TrivialType.TYPE2, "type2"))
                   if doc["trivials"][key]]
    blocksum = direct_sum(*parts)
    assert _mutually_inverse(_golden_map(doc["into"], blocksum, x),
                             _golden_map(doc["back"], x, blocksum))

    doc = golden("decompose")
    assert parse_complex_doc(doc["minimal"], field) == m
    blocks = assemble(IndecompMultiset.from_labels(
        IndecompLabel(lab["shifted"], lab["j"])
        for lab in doc["multiset"] for _ in range(lab["mult"])), field)
    assert _mutually_inverse(_golden_map(doc["to_blocks"], m, blocks),
                             _golden_map(doc["from_blocks"], blocks, m))

    doc = golden("hom")
    assert doc["free_rank"] == 0
    assert len(doc["generators"]) == len(doc["factors"])
    for g_doc, f in zip(doc["generators"], doc["factors"]):
        g = _golden_map(g_doc, x, x)
        for k, null in ((f - 1, False), (f, True)):
            c = x_power(field, k)
            xg = ChainMap2(x, x, g.f0.scale(c), g.f1.scale(c))
            assert (is_null_homotopic(xg) is not None) == null


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


@pytest.mark.parametrize("name", ["q_rank5", "q_denominators", "f3_rank5",
                                  "q_tensor_lhs", "q_tensor_rhs", "f101_free"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_golden_cohomology(name, fmt, suffix, capsys):
    path = GOLDEN / f"{name}.json"
    field = json.loads(path.read_text())["field"]
    assert main(["cohomology", str(path), "--field", field,
                 "--format", fmt]) == 0
    expected = (GOLDEN / f"{name}.cohomology.{suffix}").read_text()
    assert capsys.readouterr().out == expected
