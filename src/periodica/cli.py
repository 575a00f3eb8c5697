"""Batch command-line front end.

One command per invocation; composition happens through files.  Exit
codes: 0 success, 1 mathematical verification failure (``validate``
finding a non-complex, a failed AR axiom, a map that is not
null-homotopic, a Serre length mismatch), 2 input error (unreadable
file, parse error, input outside an operation's domain).  Only
``validate`` reports a non-complex as its verdict; every other command
treats a non-complex or a non-chain-map input as an input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import serialize
from .artheory import (
    ar_triangle,
    build_quiver,
    quiver_dot,
    serre_length_check,
    verify_ar,
)
from .classify import decompose
from .complexes import (
    cohomology,
    cone,
    direct_sum,
    dual,
    hom_module,
    homc,
    is_null_homotopic,
    shift,
    tensor2,
)
from .errors import ParseError, PeriodicaError, ValidationError
from .fields import FieldSpec
from .minimal import reduce
from .selftest import run_selftest
from .smith import SubquotientModule
from .strictify import _strictified

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2

# Upper limits of the options whose cost grows without bound.  The largest
# accepted calls take at most about 10 s over Q on a 2-vCPU machine:
# ar-verify --i 1000 --bound 1200 1.1-1.4 s, ar-verify --i 3 --bound 1200
# 1.0-1.4 s and 34 MB, quiver --max 100 2.2-2.7 s (F_101 is faster),
# strictify --window 180 on tests/golden/q_quasi.json 5.4-6.1 s and
# 48 MB (the coefficients of the comparison maps grow with the window:
# 200 took 15 s), selftest --rounds 250 7.6-8.1 s.  Input documents are
# bounded at parse (serialize.MAX_MATRIX_COEFFICIENTS): validate on a
# 58 KB grid of 60 x 60 x^10000 exits 2 in 0.14 s at 25 MB peak, where
# parsing it whole took 1.0 s and 293 MB.
MAX_I, MAX_BOUND, MAX_QUIVER = 1000, 1200, 100
MAX_WINDOW, MAX_ROUNDS = 180, 250


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, a file that is not UTF-8, or an integer of
        # more digits than int() converts
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def _emit(doc, fmt: str, text_renderer=None) -> None:
    if fmt == "json" or text_renderer is None:
        print(json.dumps(doc, indent=2))
    else:
        print(text_renderer(doc))


def _in_range(args, name: str, low: int, high: int | None = None) -> None:
    value = getattr(args, name)
    if value < low:
        raise ParseError(f"--{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ParseError(f"--{name} must be <= {high}, got {value}")


def _field(args) -> FieldSpec:
    return FieldSpec.from_label(args.field)


def _load_complex(args, path: str):
    return serialize.parse_complex_doc(_load_json(path), _field(args))


def _load_map(args, path: str):
    base = Path(path).parent

    def loader(ref: str):
        return _load_json(str((base / ref)))

    return serialize.parse_chain_map_doc(_load_json(path), _field(args), loader)


def _subquotient_text(m: SubquotientModule) -> str:
    parts = [f"R/x^{a}" for a in m.factors] + ["R"] * m.free_rank
    return " + ".join(parts) if parts else "0"


# -- command handlers ---------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_json(args.complex)
    try:
        x = serialize.parse_complex_doc(doc, _field(args))
    except ValidationError as exc:
        _emit({"valid": False, "violation": str(exc)}, args.format,
              lambda d: f"invalid: {d['violation']}")
        return VERIFY_FAILED
    _emit({"valid": True, "r0": x.r0, "r1": x.r1}, args.format,
          lambda d: f"valid complex, ranks ({d['r0']}, {d['r1']})")
    return OK


def cmd_reduce(args) -> int:
    x = _load_complex(args, args.complex)
    s = reduce(x)
    doc = serialize.split_to_doc(s)
    _emit(doc, args.format, lambda d: (
        f"minimal ranks ({s.minimal.r0}, {s.minimal.r1}), "
        f"trivials: type1={s.type1}, type2={s.type2}"))
    return OK


def cmd_cohomology(args) -> int:
    x = _load_complex(args, args.complex)
    h0, h1 = cohomology(x)
    doc = {"H0": serialize.subquotient_to_doc(h0),
           "H1": serialize.subquotient_to_doc(h1)}
    _emit(doc, args.format, lambda d: (
        f"H0 = {_subquotient_text(h0)}\nH1 = {_subquotient_text(h1)}"))
    return OK


def cmd_decompose(args) -> int:
    x = _load_complex(args, args.complex)
    dec = decompose(x)
    cert = dec.certificate
    doc = {
        "multiset": serialize.multiset_to_list(dec.multiset),
        "minimal": serialize.complex_to_doc(dec.minimal),
        "to_blocks": serialize.map_to_doc(cert.to_blocks),
        "from_blocks": serialize.map_to_doc(cert.from_blocks),
    }
    _emit(doc, args.format, lambda d: str(dec.multiset))
    return OK


def cmd_unary(args) -> int:
    x = _load_complex(args, args.complex)
    y = shift(x) if args.op == "shift" else dual(x)
    _emit(serialize.complex_to_doc(y), args.format)
    return OK


def cmd_binary(args) -> int:
    x = _load_complex(args, args.lhs)
    y = _load_complex(args, args.rhs)
    out = {"sum": direct_sum, "tensor": tensor2, "homc": homc}[args.op](x, y)
    _emit(serialize.complex_to_doc(out), args.format)
    return OK


def cmd_hom(args) -> int:
    x = _load_complex(args, args.lhs)
    y = _load_complex(args, args.rhs)
    hm = hom_module(x, y)
    doc = serialize.hom_module_to_doc(hm)
    parts = [f"R/x^{a}" for a in hm.factors]
    parts += [f"R^{hm.free_rank}"] if hm.free_rank else []
    _emit(doc, args.format, lambda d: f"Hom = {' + '.join(parts) or '0'}")
    return OK


def cmd_cone(args) -> int:
    f = _load_map(args, args.map)
    c, u, v = cone(f)
    doc = {
        "cone": serialize.complex_to_doc(c),
        "u": serialize.map_to_doc(u),
        "v": serialize.map_to_doc(v),
    }
    _emit(doc, args.format)
    return OK


def cmd_homotopic(args) -> int:
    f = _load_map(args, args.map)
    h = is_null_homotopic(f)
    if h is None:
        _emit({"null_homotopic": False}, args.format,
              lambda d: "not null-homotopic")
        return VERIFY_FAILED
    doc = {"null_homotopic": True, "witness": serialize.homotopy_to_doc(h)}
    _emit(doc, args.format, lambda d: "null-homotopic (witness attached)")
    return OK


def cmd_strictify(args) -> int:
    _in_range(args, "window", 0, MAX_WINDOW)
    q = serialize.parse_quasi_doc(_load_json(args.data), _field(args))
    x, fs = _strictified(q, args.window)
    doc = {"complex": serialize.complex_to_doc(x)}
    if args.window:
        doc["window"] = {str(n): serialize.matrix_to_grid(m)
                         for n, m in sorted(fs.items())}
    _emit(doc, args.format)
    return OK


def cmd_ar_triangle(args) -> int:
    _in_range(args, "i", 1, MAX_I)
    t = ar_triangle(args.i, _field(args))
    (_, _, middle), _ = t.terms
    doc = serialize.triangle_to_doc(t)
    doc["middle"] = serialize.multiset_to_list(middle)
    _emit(doc, args.format, lambda d: f"middle = {middle}")
    return OK


def cmd_ar_verify(args) -> int:
    _in_range(args, "i", 1, MAX_I)
    if args.bound is None:
        args.bound = args.i + 3
    _in_range(args, "bound", 1, MAX_BOUND)
    t = ar_triangle(args.i, _field(args))
    right, left = verify_ar(t, args.bound)
    doc = {"i": args.i, "bound": args.bound,
           "right": serialize.ar_report_to_doc(right),
           "left": serialize.ar_report_to_doc(left),
           "passed": right.passed and left.passed}
    _emit(doc, args.format, lambda d: " ".join(
        [f"{rep.side[0].upper()}AR{k}={ok}"
         for rep in (right, left) for k, ok in enumerate(rep.axioms, 1)]
        + [f"middle={right.middle}"]))
    return OK if (right.passed and left.passed) else VERIFY_FAILED


def cmd_quiver(args) -> int:
    _in_range(args, "max", 2, MAX_QUIVER)
    result = build_quiver(args.max, _field(args))
    if args.format == "dot":
        print(quiver_dot(result.graph), end="")
    else:
        doc = serialize.quiver_to_doc(result)
        if args.format == "json":
            print(json.dumps(doc, indent=2))
        else:
            for e in result.graph.edges:
                print(f"{e.src.name} -> {e.dst.name} (mult {e.mult})")
    if not result.verified:
        print("quiver verification FAILED", file=sys.stderr)
        return VERIFY_FAILED
    return OK


def cmd_serre_check(args) -> int:
    x = _load_complex(args, args.lhs)
    y = _load_complex(args, args.rhs)
    ok = serre_length_check(x, y)
    _emit({"equal_lengths": ok}, args.format,
          lambda d: "Serre lengths agree" if ok else "Serre length MISMATCH")
    return OK if ok else VERIFY_FAILED


def cmd_selftest(args) -> int:
    _in_range(args, "rounds", 1, MAX_ROUNDS)
    results = run_selftest(seed=args.seed, rounds=args.rounds)
    failed = [r for r in results if not r.ok]
    if args.format == "json":
        print(json.dumps([{"suite": r.name, "ok": r.ok, "detail": r.detail}
                          for r in results], indent=2))
    else:
        for r in results:
            line = f"{'PASS' if r.ok else 'FAIL'} {r.name}"
            if r.detail:
                line += f" ({r.detail})"
            print(line)
    return OK if not failed else VERIFY_FAILED


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it as
    it was."""
    parser = argparse.ArgumentParser(
        prog="periodica",
        description="Exact computations with 2-periodic complexes over k[x] "
                    "localized at (x).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json")):
        p.add_argument("--field", default="Q",
                       help="coefficient field: Q or Fp:<p> (default Q)")
        p.add_argument("--format", default="text", choices=fmt_choices,
                       help="output format")

    # commands by the files they read, in registration (and help) order
    for files, commands in (
            (("complex",), (
                ("validate", "check a complex document", cmd_validate),
                ("reduce", "split off the trivial summands", cmd_reduce),
                ("cohomology", "invariant factors of H0 and H1",
                 cmd_cohomology),
                ("decompose", "indecomposable summands with certificates",
                 cmd_decompose),
                ("shift", "shift of a complex", cmd_unary),
                ("dual", "dual of a complex", cmd_unary))),
            (("lhs", "rhs"), (
                ("sum", "direct sum", cmd_binary),
                ("tensor", "2-periodic tensor", cmd_binary),
                ("homc", "2-periodic Hom complex", cmd_binary),
                ("hom", "Hom-module in the homotopy category", cmd_hom))),
            (("map",), (
                ("cone", "mapping cone of a chain map", cmd_cone),
                ("homotopic", "null-homotopy witness search",
                 cmd_homotopic)))):
        for name, desc, fn in commands:
            p = sub.add_parser(name, help=desc)
            for f in files:
                p.add_argument(f)
            common(p)
            p.set_defaults(fn=fn, op=name)

    p = sub.add_parser("strictify", help="strictify quasi-periodic data")
    p.add_argument("data")
    p.add_argument("--window", type=int, default=0,
                   help="also emit comparison maps for |n| <= window")
    common(p)
    p.set_defaults(fn=cmd_strictify)

    p = sub.add_parser("ar-triangle", help="AR-triangle ending at K(i)")
    p.add_argument("--i", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_ar_triangle)

    p = sub.add_parser("ar-verify", help="verify the AR axioms at K(i)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="test family bound (default i + 3)")
    common(p)
    p.set_defaults(fn=cmd_ar_verify)

    p = sub.add_parser("quiver", help="verified AR-quiver up to K(max)")
    p.add_argument("--max", type=int, default=4)
    common(p, fmt_choices=("text", "json", "dot"))
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("serre-check", help="Serre duality length check")
    p.add_argument("lhs")
    p.add_argument("rhs")
    common(p)
    p.set_defaults(fn=cmd_serre_check)

    p = sub.add_parser("selftest", help="run the randomized property suite")
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized suites")
    common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def _write_stdout(text: str) -> None:
    """Write a command's output.  A reader that closes the pipe early
    (``| head``) keeps what it read; the exit code stays the verdict."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    """Run one command; its stdout is written once, after it returns."""
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return args.fn(args)
    except PeriodicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        _write_stdout(out.getvalue())


if __name__ == "__main__":
    sys.exit(main())
