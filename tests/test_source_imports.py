"""Source lints in the AST.

Every name a module of the package or of the tests imports is used in
that module.  ``__init__.py`` re-exports names, and ``from __future__``
imports act on the compiler, so both are exempt.  Names inside quoted
annotations count as used.

Every top-level function and class of the package, and every method
that is not a dunder, is referenced by name somewhere in the package or
the benchmark: a definition that only the tests use belongs in the tests
(``oracles`` for references, ``thelpers`` for fixtures).  Import
statements (and so the re-exports of ``__init__.py``) are not
references; a ``periodica.<module>:<name>`` target of the benchmark's
tracer is.  An underscore-named top-level function or class is
referenced from the package itself: the benchmark does not keep a
private helper alive either.

``complexes._unchecked`` builds a complex, a chain map or a certificate
without its constructor's checks.  Only the helpers in
``UNCHECKED_CALLERS``, whose results exact algebra makes valid when their
inputs are, refer to it, so that no construction from raw data skips its
check.  This is the one list of them; the ``complexes`` docstring gives
the rule.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "periodica"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
TRACE_TARGET = re.compile(r"periodica\.\w+:([\w.]+)")
UNCHECKED_CALLERS = {
    ("complexes.py", name) for name in (
        "shift", "dual", "_model_sum", "direct_sum", "homc", "tensor2",
        "identity_map", "compose", "negate_map", "scale_map", "shift_map",
        "BlockSumCertificate.shifted", "hom_module")
} | {("classify.py", "model_certificate"), ("classify.py", "_classify"),
     ("classify.py", "_moved_certificate"),
     ("minimal.py", "trivial_complex"), ("minimal.py", "_split"),
     ("strictify.py", "_strictified")}


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, ", ".join(f"{path.name}:{line} {name}"
                                 for line, name in unused)


def test_checker_sees_an_unused_import():
    tree = ast.parse("from .matrix import RMatrix, kron\n"
                     "def f(a: 'RMatrix'):\n    return a\n")
    assert set(_imported(tree)) - _used(tree) == {"kron"}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class and of
    each method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, defs[:2])
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))):
                    yield f"{node.name}.{m.name}", m.name


def _references(text: str) -> set:
    """Names read as a variable or an attribute, and the parts of every
    tracer target string."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for target in TRACE_TARGET.findall(node.value):
                out.update(target.split("."))
    return out


def _unreferenced(modules: dict, others=()) -> list:
    """module:qualified name of each definition of ``modules`` (module
    name -> text) that neither those texts nor ``others`` reference."""
    refs = set().union(*map(_references, [*modules.values(), *others]))
    return [f"{module}:{qual}" for module, text in modules.items()
            for qual, name in _definitions(ast.parse(text))
            if name not in refs]


def _package() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in MODULES}


def test_every_definition_is_referenced():
    unreferenced = _unreferenced(
        _package(), [path.read_text(encoding="utf-8") for path in BENCH])
    assert not unreferenced, ", ".join(unreferenced)


def test_checker_sees_an_unreferenced_definition():
    text = ("from .x import gone\n"
            "def used():\n    pass\n"
            "def gone():\n    pass\n"
            "class C:\n"
            "    def __init__(self):\n        pass\n"
            "    def m(self):\n        pass\n"
            "    def traced(self):\n        pass\n"
            "    def idle(self):\n        pass\n"
            "used(C().m)\n"
            "TARGET = 'periodica.x:C.traced'\n")
    refs = _references(text)
    assert [q for q, name in _definitions(ast.parse(text))
            if name not in refs] == ["gone", "C.idle"]


def test_checker_sees_a_definition_only_a_test_references():
    package = {"a.py": ("def used():\n    pass\n"
                        "def test_only():\n    pass\n"),
               "b.py": "from .a import used\nused()\n"}
    test = "from periodica.a import test_only\ntest_only()\n"
    bench = "TARGET = 'periodica.a:used'\n"
    assert _unreferenced(package, [bench]) == ["a.py:test_only"]
    assert _unreferenced(package, [bench, test]) == []


def _private_unreferenced(sources: dict) -> list:
    """module:name of each underscore-named top-level function or class
    of ``sources`` (module name -> text) that no text there references."""
    return [name for name in _unreferenced(sources)
            if re.fullmatch(r"[\w.]+:_\w+", name)]


def test_private_definitions_are_referenced_by_the_package():
    unreferenced = _private_unreferenced(_package())
    assert not unreferenced, ", ".join(unreferenced)


def test_checker_sees_a_private_definition_the_package_does_not_use():
    sources = {"a.py": ("def _kept():\n    pass\n"
                        "def _imported_only():\n    pass\n"
                        "class _Gone:\n    def _m(self):\n        pass\n"
                        "def public():\n    pass\n"),
               "b.py": "from .a import _kept, _imported_only\n_kept()\n"}
    assert _private_unreferenced(sources) == ["a.py:_imported_only",
                                              "a.py:_Gone"]


def _unchecked_users(tree: ast.Module):
    """Qualified name of the top-level function or method (None at module
    or class level) around each reference to ``_unchecked``."""
    def scopes():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{m.name}", m
                    else:
                        yield None, m
            else:
                yield None, node
    for scope, node in scopes():
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == "_unchecked"
                    or isinstance(sub, ast.Attribute)
                    and sub.attr == "_unchecked"):
                yield scope


def test_unchecked_construction_only_in_derived_helpers():
    used = {(path.name, scope) for path in MODULES + TESTS + BENCH
            for scope in _unchecked_users(
                ast.parse(path.read_text(encoding="utf-8")))}
    assert used == UNCHECKED_CALLERS


def test_checker_sees_an_unchecked_construction():
    text = ("from .complexes import _unchecked\n"
            "import periodica.complexes as c\n"
            "def compose(f):\n    return _unchecked(f)\n"
            "class C:\n"
            "    build = c._unchecked\n"
            "    def m(self, f):\n        return (lambda: _unchecked(f))()\n"
            "RAW = c._unchecked\n")
    assert list(_unchecked_users(ast.parse(text))) == \
        ["compose", None, "C.m", None]
