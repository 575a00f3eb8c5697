"""Benchmark of ``periodica``: three closed-loop workloads in one
process and one thread, each job starting when the previous one has
returned.

    python3 bench/run.py --workload hom-q --seed 1 --seconds 25 --trace 0

Workloads (see README.md for their make-up and why they were chosen):

* ``hom-q``       library ``hom_module`` / ``is_null_homotopic`` over Q;
* ``classify-fp`` ``periodica decompose`` / ``cohomology`` through
  ``cli.main`` over F_101, JSON in and out;
* ``ar-quiver``   ``build_quiver`` and verified AR-triangles over Q and
  F_101.

With ``--trace 0`` the job list is run in whole passes until
``--seconds`` have elapsed and the end-to-end metrics are reported.
With ``--trace 1`` one untraced and one traced pass are run and the
per-layer metrics of the traced pass are reported, with the tracing
overhead.  Every job's output is checked against ``oracle.py`` in every
pass.  The last line of standard output is the JSON result; it is also
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import gen
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 11
# reference() on the machine this benchmark was made on, when quiet; job
# times are reported at that speed (see normalized())
REF_SECONDS = 0.003

# per workload: the per-layer metrics that must record work when traced
LAYERS_THAT_RUN = {
    "hom-q": ("fields.mul_calls", "poly.gcd_calls", "localring.elem_calls",
              "smith.calls", "smith.self_s", "smith.max_den_deg",
              "complexes.homc_self_s", "complexes.hom_module_self_s",
              "complexes.null_homotopy_self_s"),
    "classify-fp": ("smith.calls", "matrix.matmul_calls", "matrix.matmul_self_s",
                    "complexes.cohomology_self_s", "minimal.reduce_self_s",
                    "classify.decompose_self_s", "serialize.parse_self_s",
                    "serialize.emit_self_s", "cli.main_self_s"),
    "ar-quiver": ("smith.calls", "smith.distinct_inputs", "matrix.matmul_calls",
                  "complexes.null_homotopy_self_s", "complexes.chain_map_checks",
                  "artheory.verify_self_s"),
}


class JobFailed(Exception):
    """The program did not return an answer (error exit code)."""


@dataclass
class Job:
    name: str
    call: Callable[[], object]           # the timed program call
    check: Callable[[object, Random], None]  # raises oracle.CheckFailed


def load_periodica():
    """Import ``periodica`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "periodica" / "__init__.py").is_file():
        sys.exit(f"bench: no periodica sources under {src}")
    sys.path.insert(0, str(src))
    import periodica
    import periodica.cli
    if Path(periodica.__file__).resolve().parent != (src / "periodica").resolve():
        sys.exit(f"bench: imported periodica from {periodica.__file__}")
    return periodica


def _labels(shape: Random, count: int, max_j: int):
    return [(shape.randint(1, max_j), shape.random() < 0.5) for _ in range(count)]


# -- hom-q ----------------------------------------------------------------------

# (jobs, rank of X, rank of Y); X and Y are conjugated block sums with j <= 3.
HOM_GROUPS = ((12, 2, 2), (16, 3, 3), (6, 4, 2), (6, 5, 2), (4, 4, 4), (2, 5, 5))
# (complexes, rank); each gives x^m id for m = max j - 1 and m = max j.
NULL_GROUPS = ((12, 3), (4, 4), (1, 5))


def hom_q(seed: int, pkg):
    cx, lr, ser = pkg.complexes, pkg.localring, pkg.serialize
    jobs, docs = [], {}

    def make(slot, shape, labels):
        values = Random(f"{seed}/hom-q/{slot}")
        inst = gen.instance(shape, values, gen.QQ, labels)
        docs[slot] = inst.doc()
        return inst, ser.parse_complex_doc(docs[slot])

    for count, nx, ny in HOM_GROUPS:
        for c in range(count):
            slot = f"hom{nx}x{ny}.{c}"
            shape = Random(f"hom-q/{slot}")
            lx = _labels(shape, nx, 3)
            if nx == ny == 5:  # 3*K(3) + two more: Smith transforms grow here
                lx = [(3, False)] * 3 + lx[:2]
            ix, x = make(slot + ".x", shape, lx)
            iy, y = make(slot + ".y", shape, _labels(shape, ny, 3))

            def check(out, rng, ix=ix, iy=iy):
                oracle.check_hom(ix.labels, iy.labels, out.factors, out.free_rank)
            jobs.append(Job(slot, lambda x=x, y=y: cx.hom_module(x, y), check))
    for count, n in NULL_GROUPS:
        for c in range(count):
            slot = f"null{n}.{c}"
            shape = Random(f"hom-q/{slot}")
            labels = _labels(shape, n, 3)
            if n == 5:
                labels = [(3, False)] * 3 + labels[:2]
            inst, x = make(slot, shape, labels)
            top = max(j for j, _ in inst.labels)
            for m in (top - 1, top):
                f = cx.scale_map(cx.identity_map(x), lr.x_power(x.field, m))

                def check(out, rng, inst=inst, m=m):
                    witness = None if out is None else (
                        _pairs(out.s0), _pairs(out.s1))
                    oracle.check_null_homotopy(inst, m, witness, rng)
                jobs.append(Job(f"{slot}.m{m}",
                                lambda f=f: cx.is_null_homotopic(f), check))
    return jobs, docs


def _pairs(m):
    """RMatrix -> grid of (numerator, denominator) coefficient tuples."""
    return [[(e.num, e.den) for e in m.entries[i * m.cols:(i + 1) * m.cols]]
            for i in range(m.rows)]


# -- classify-fp ----------------------------------------------------------------

# (complexes, rank, (type-1, type-2) trivial summands); labels have j <= 4.
CLASSIFY_GROUPS = ((6, 12, (2, 2)), (6, 16, (3, 3)), (4, 20, (3, 3)), (1, 24, (4, 4)))


def classify_fp(seed: int, pkg, workdir: Path):
    cli = pkg.cli
    jobs, docs = [], {}
    for count, n, trivials in CLASSIFY_GROUPS:
        for c in range(count):
            slot = f"cx{n}.{c}"
            shape = Random(f"classify-fp/{slot}")
            values = Random(f"{seed}/classify-fp/{slot}")
            labels = _labels(shape, n - sum(trivials), 4)
            inst = gen.instance(shape, values, gen.F101, labels, trivials, ops=4 * n)
            docs[slot] = inst.doc()
            path = workdir / f"{slot}.json"
            path.write_text(json.dumps(docs[slot]), encoding="utf-8")
            argv = [str(path), "--field", "Fp:101", "--format", "json"]

            def check_dec(out, rng, inst=inst):
                oracle.check_decompose(inst, json.loads(out), rng)

            def check_coh(out, rng, inst=inst):
                oracle.check_cohomology(inst, json.loads(out))
            jobs.append(Job(slot + ".decompose",
                            lambda a=argv: _cli(cli, ["decompose"] + a), check_dec))
            jobs.append(Job(slot + ".cohomology",
                            lambda a=argv: _cli(cli, ["cohomology"] + a), check_coh))
    return jobs, docs


def _cli(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"periodica {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


# -- ar-quiver ------------------------------------------------------------------

TRIANGLES = range(1, 9)   # ar_triangle(i) + right and left axioms, bound i + 3
TRIANGLE_COPIES = 2       # each triangle job appears twice per pass
QUIVERS = range(3, 9)     # build_quiver(b)


def ar_quiver(seed: int, pkg):
    ar = pkg.artheory
    fields = (pkg.FieldSpec(0), pkg.FieldSpec(101))
    jobs = []
    for field in fields:
        for i in TRIANGLES:
            def call(i=i, field=field):
                t = ar.ar_triangle(i, field)
                return ar.verify_right_ar(t, i + 3), ar.verify_left_ar(t, i + 3)

            def check(out, rng, i=i):
                right, left = out
                for rep in (right, left):
                    oracle.check_triangle(i, right.passed, left.passed,
                                          _counter(rep.middle))
            jobs += [Job(f"triangle{i}.{field.label}.{c}", call, check)
                     for c in range(TRIANGLE_COPIES)]
        for b in QUIVERS:
            def check(out, rng, b=b):
                g = out.graph
                oracle.check_quiver(
                    b, [_lab(v) for v in g.vertices],
                    [(_lab(e.src), _lab(e.dst), e.mult) for e in g.edges],
                    out.verified,
                    [(_target(r.triangle.m), _counter(r.middle), r.passed)
                     for r in out.reports])
            jobs.append(Job(f"quiver{b}.{field.label}",
                            lambda b=b, field=field: ar.build_quiver(b, field), check))
    Random(f"{seed}/ar-quiver").shuffle(jobs)
    return jobs, {}


def _lab(label):
    return (label.j, label.shifted)


def _counter(ms) -> Counter:
    return Counter({_lab(lab): mult for lab, mult in ms.items})


def _target(m):
    """(j, shifted) of a rank-(1, 1) complex with one monomial x^j."""
    if (m.r0, m.r1) != (1, 1):
        raise oracle.CheckFailed("triangle end is not of rank (1, 1)")
    e0, e1 = m.d0.entries[0], m.d1.entries[0]
    e = e0 if e0.num else e1
    if not e.num or any(e.num[:-1]) or (e0.num and e1.num):
        raise oracle.CheckFailed("triangle end is not K(j) or K(j)[1]")
    return (len(e.num) - 1, bool(e0.num))


# -- measuring ------------------------------------------------------------------


def build(workload: str, seed: int, pkg, workdir: Path):
    if workload == "hom-q":
        return hom_q(seed, pkg)
    if workload == "classify-fp":
        return classify_fp(seed, pkg, workdir)
    return ar_quiver(seed, pkg)


def reference() -> float:
    """Wall time of a fixed computation in the benchmark's own code, shaped
    like the program's work: ``gen`` building three conjugated rank-6
    complexes over Q (``Fraction`` polynomial arithmetic on small lists)."""
    t0 = time.perf_counter()
    for k in range(3):
        gen.instance(Random(f"reference/{k}"), Random("reference"), gen.QQ,
                     [(2, False), (1, True), (3, False), (1, False)], (1, 1))
    return time.perf_counter() - t0


def normalized(elapsed: float, ref_before: float, ref_after: float) -> float:
    """``elapsed`` at the machine speed where ``reference()`` takes
    REF_SECONDS, the speed measured by the references around it."""
    return elapsed * REF_SECONDS / ((ref_before + ref_after) / 2)


def run_pass(jobs, rng: Random, tally: Counter, tracer=None):
    """Run every job once.  Returns (normalized, raw) program times per
    job, None for a job that failed.  Checks run outside the timed
    region; a reference computation runs between jobs."""
    times, raw = [], []
    ref_before = reference()
    for job in jobs:
        tally["attempted"] += 1
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = job.call()
            error = None
        except Exception:  # a program error fails this job, not the run
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.active = False
        ref_after = reference()
        if error is None:
            times.append(normalized(elapsed, ref_before, ref_after))
            raw.append(elapsed)
        else:
            tally["failed"] += 1
            print(f"bench: {job.name} failed:\n{error}", file=sys.stderr)
            times.append(None)
            raw.append(None)
        ref_before = ref_after
        if error is None:
            try:
                job.check(out, rng)
            except (oracle.CheckFailed, KeyError, TypeError, ValueError) as exc:
                tally["failed"] += 1
                tally["incorrect"] += 1
                print(f"bench: {job.name} gave a wrong answer: {exc!r}",
                      file=sys.stderr)
    return times, raw


def setup_seconds(inputs: Path) -> float:
    """Median normalized wall time of fresh interpreters importing
    periodica and loading the input document; one unmeasured start
    first fills the bytecode cache."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(inputs)]
    samples = []
    ref_before = reference()
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        ref_after = reference()
        if k:
            samples.append(normalized(elapsed, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(samples)


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the average of the order
    statistics weighted by the Beta((n+1)/2, (n+1)/2) density, integrated
    over each rank's share of [0, 1] (Simpson's rule).  Unlike the plain
    sample median it does not jump across a gap between two job sizes
    when one job moves past the middle."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def density(t):
        return math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t))) \
            if 0 < t < 1 else 0.0

    steps = 16
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        weights.append(h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2)
                                   * density(lo + k * h) for k in range(steps + 1)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS_THAT_RUN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_periodica()
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, docs = build(args.workload, args.seed, pkg, workdir)
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps({"jobs": [j.name for j in jobs], "complexes": docs}),
                      encoding="utf-8")
    rng = Random(f"{args.seed}/check")
    tally = Counter()

    if args.trace:
        untraced, untraced_raw = run_pass(jobs, rng, tally)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced, traced_raw = run_pass(jobs, rng, tally, tracer)
        finally:
            tracer.uninstall()
        if not tally["failed"]:
            tracer.require_nonzero(LAYERS_THAT_RUN[args.workload])
        ok = [i for i in range(len(jobs)) if None not in (untraced[i], traced[i])]
        norm_sum = sum(traced[i] for i in ok)
        # self times are reported at the reference speed, like job times
        metrics = tracer.metrics(norm_sum / sum(traced_raw[i] for i in ok) if ok else 1.0)
        metrics["trace.overhead"] = {
            "value": norm_sum / sum(untraced[i] for i in ok) if ok else 0.0,
            "unit": "ratio"}
        passes = [(untraced, untraced_raw), (traced, traced_raw)]
    else:
        setup_s = setup_seconds(inputs)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(jobs, rng, tally))
        ok = [p for p, _ in passes if None not in p] or [[0.0] * len(jobs)]
        # per job, the median over passes: one slow pass moves no metric
        per_job = [statistics.median(p[i] for p in ok) for i in range(len(jobs))]
        metrics = {
            "jobs_per_s": {"value": len(jobs) / sum(per_job) if sum(per_job) else 0.0,
                           "unit": "1/s"},
            "job_p50_s": {"value": hd_median(per_job), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    result = {"correct": tally["incorrect"] == 0, "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  jobs=[j.name for j in jobs], pass_times=[p for p, _ in passes],
                  raw_pass_times=[r for _, r in passes])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as exc:
        sys.exit(f"bench: {exc}")
