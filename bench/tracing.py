"""Per-layer counters and self times, recorded by wrapping public
functions of ``periodica`` from outside the package.

Modules such as ``classify``, ``complexes``, ``artheory`` and
``strictify`` import ``smith_normal_form`` and friends by name, so a
wrapper replaces every module attribute of the ``periodica`` package
that is the original function, not only the defining one.  Methods
(``FieldSpec.mul``, ``RMatrix.__matmul__``, ``ChainMap2.__post_init__``)
are replaced on their class.  A layer's self time is the time spent in
its wrapped calls minus the time spent in wrapped calls beneath them.

Wrappers record only while ``Tracer.active`` is true, so the
benchmark's own checks are not counted.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric, "module:attribute" or "module:Class.method", timed)
WRAPPED = (
    ("fields.mul", "periodica.fields:FieldSpec.mul", False),
    ("poly.gcd", "periodica.poly:gcd", False),
    ("localring.elem", "periodica.localring:elem", False),
    ("complexes.chain_map", "periodica.complexes:ChainMap2.__post_init__", False),
    ("smith", "periodica.smith:smith_normal_form", True),
    ("matrix.matmul", "periodica.matrix:RMatrix.__matmul__", True),
    ("complexes.homc", "periodica.complexes:homc", True),
    ("complexes.hom_module", "periodica.complexes:hom_module", True),
    ("complexes.null_homotopy", "periodica.complexes:is_null_homotopic", True),
    ("complexes.cohomology", "periodica.complexes:cohomology", True),
    ("minimal.reduce", "periodica.minimal:reduce", True),
    ("classify.decompose", "periodica.classify:decompose", True),
    ("artheory.verify", "periodica.artheory:verify_right_ar", True),
    ("artheory.verify", "periodica.artheory:verify_left_ar", True),
    ("serialize.parse", "periodica.serialize:parse_complex_doc", True),
    ("serialize.parse", "periodica.serialize:parse_chain_map_doc", True),
    ("serialize.emit", "periodica.serialize:complex_to_doc", True),
    ("serialize.emit", "periodica.serialize:matrix_to_grid", True),
    ("serialize.emit", "periodica.serialize:subquotient_to_doc", True),
    ("serialize.emit", "periodica.serialize:multiset_to_list", True),
    ("serialize.emit", "periodica.cli:_emit", True),
    ("cli.main", "periodica.cli:main", True),
)

# per-layer metric -> unit
METRICS = {
    "fields.mul_calls": "count",
    "poly.gcd_calls": "count",
    "localring.elem_calls": "count",
    "smith.calls": "count",
    "smith.distinct_inputs": "count",
    "smith.self_s": "s",
    "smith.max_den_deg": "count",
    "smith.max_coeff_bits": "bits",
    "matrix.matmul_calls": "count",
    "matrix.matmul_self_s": "s",
    "complexes.homc_self_s": "s",
    "complexes.hom_module_self_s": "s",
    "complexes.null_homotopy_self_s": "s",
    "complexes.chain_map_checks": "count",
    "complexes.cohomology_self_s": "s",
    "minimal.reduce_self_s": "s",
    "classify.decompose_self_s": "s",
    "artheory.verify_self_s": "s",
    "serialize.parse_self_s": "s",
    "serialize.emit_self_s": "s",
    "cli.main_self_s": "s",
}


class TraceError(RuntimeError):
    """A wrapped name is gone, or an expected layer recorded nothing."""


def _resolve(target: str):
    """(owner, attribute name, original) for "module:attr" or
    "module:Class.method"."""
    mod_name, path = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"cannot wrap {target}: {exc}") from None


def _degree_and_bits(entries):
    deg = bits = 0
    for e in entries:
        deg = max(deg, len(e.den) - 1)
        for c in e.num + e.den:
            if isinstance(c, int):
                bits = max(bits, c.bit_length())
            else:
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return deg, bits


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.smith_inputs = set()
        self.max_den_deg = 0
        self.max_coeff_bits = 0
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _counted(self, metric, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, metric, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[metric] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def _smith(self, fn):
        timed = self._timed("smith", fn)
        stack, clock = self._stack, time.perf_counter

        def wrapper(a):
            if not self.active:
                return fn(a)
            t0 = clock()
            self.smith_inputs.add(
                (a.field.p, a.rows, a.cols,
                 tuple((e.num, e.den) for e in a.entries)))
            t1 = clock()
            s = timed(a)
            t2 = clock()
            deg, bits = _degree_and_bits(
                s.u.entries + s.v.entries + s.u_inv.entries + s.v_inv.entries
                + s.d.entries)
            self.max_den_deg = max(self.max_den_deg, deg)
            self.max_coeff_bits = max(self.max_coeff_bits, bits)
            if stack:  # bookkeeping is nobody's self time
                stack[-1] += (t1 - t0) + (clock() - t2)
            return s
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of WRAPPED; raises TraceError if one is missing."""
        resolved = [(metric, target, timed, *_resolve(target))
                    for metric, target, timed in WRAPPED]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "periodica"
                                         or name.startswith("periodica."))]
        for metric, target, timed, owner, attr, orig in resolved:
            if metric == "smith":
                wrapper = self._smith(orig)
            elif timed:
                wrapper = self._timed(metric, orig)
            else:
                wrapper = self._counted(metric, orig)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def metrics(self, time_scale: float = 1.0) -> dict:
        """Every per-layer metric; self times are multiplied by
        ``time_scale``."""
        c = self.calls
        s = defaultdict(float, {k: t * time_scale for k, t in self.self_s.items()})
        values = {
            "fields.mul_calls": c["fields.mul"],
            "poly.gcd_calls": c["poly.gcd"],
            "localring.elem_calls": c["localring.elem"],
            "smith.calls": c["smith"],
            "smith.distinct_inputs": len(self.smith_inputs),
            "smith.self_s": s["smith"],
            "smith.max_den_deg": self.max_den_deg,
            "smith.max_coeff_bits": self.max_coeff_bits,
            "matrix.matmul_calls": c["matrix.matmul"],
            "matrix.matmul_self_s": s["matrix.matmul"],
            "complexes.homc_self_s": s["complexes.homc"],
            "complexes.hom_module_self_s": s["complexes.hom_module"],
            "complexes.null_homotopy_self_s": s["complexes.null_homotopy"],
            "complexes.chain_map_checks": c["complexes.chain_map"],
            "complexes.cohomology_self_s": s["complexes.cohomology"],
            "minimal.reduce_self_s": s["minimal.reduce"],
            "classify.decompose_self_s": s["classify.decompose"],
            "artheory.verify_self_s": s["artheory.verify"],
            "serialize.parse_self_s": s["serialize.parse"],
            "serialize.emit_self_s": s["serialize.emit"],
            "cli.main_self_s": s["cli.main"],
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS.items()}

    def require_nonzero(self, names) -> None:
        """Fail loudly when a layer that should run recorded nothing."""
        values = self.metrics()
        silent = [n for n in names if not values[n]["value"]]
        if silent:
            raise TraceError(f"layers recorded no calls: {', '.join(silent)}")
