"""Regenerate the reference table of single timings (one run each, so
noisy; the benchmark proper is ``run.py``).

    python3 bench/baseline.py

Rows: ``hom_module(X, X)`` at ranks 4, 8 and 12 over Q and F_101, one
``decompose`` of each of five conjugated complexes of ranks 4 to 11,
``build_quiver(6)``, and the CLI cold start (``validate``) with the
import of ``periodica.cli`` alone.  Inputs come from ``gen.py`` with
fixed seeds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import gen

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

from periodica import FieldSpec, build_quiver, decompose, hom_module, serialize  # noqa: E402

FIELDS = ((gen.QQ, FieldSpec(0)), (gen.F101, FieldSpec(101)))


def complex_of(k, rank, tag, trivials=(0, 0)):
    shape = Random(f"baseline/{tag}")
    labels = [(shape.randint(1, 3), shape.random() < 0.5)
              for _ in range(rank - sum(trivials))]
    inst = gen.instance(shape, Random(f"baseline/values/{tag}"), k, labels, trivials)
    return serialize.parse_complex_doc(inst.doc()), inst


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cold_start(code: str) -> float:
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> None:
    rows = []
    for rank in (4, 8, 12):
        cells = [timed(lambda: hom_module(x, x))
                 for k, _ in FIELDS for x in [complex_of(k, rank, f"hom{rank}")[0]]]
        rows.append((f"`hom_module(X, X)`, rank {rank} (homc "
                     f"{2 * rank * rank}x{2 * rank * rank})", *cells))
    dec = []
    for k, _ in FIELDS:
        xs = [complex_of(k, n, f"dec{n}", (1, 1))[0] for n in (4, 6, 8, 10, 11)]
        dec.append(sum(timed(lambda: decompose(x)) for x in xs))
    rows.append(("`decompose`, 5 instances of rank 4-11", *dec))
    rows.append(("`build_quiver(6)`", *(timed(lambda: build_quiver(6, f)) for _, f in FIELDS)))
    doc = BENCH / "out" / "baseline-k2.json"
    doc.parent.mkdir(exist_ok=True)
    doc.write_text(json.dumps(complex_of(gen.QQ, 2, "cli")[1].doc()))
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    cli = cold_start(prelude + f"from periodica.cli import main; main(['validate', {str(doc)!r}])")
    imp = cold_start(prelude + "import periodica.cli")
    print("| workload | Q | F_101 |\n|---|---|---|")
    for name, q, p in rows:
        print(f"| {name} | {q:.3f} s | {p:.3f} s |")
    print(f"| CLI cold start (`validate`), median of 9 | {cli:.3f} s "
          f"({imp:.3f} s of it import) | |")


if __name__ == "__main__":
    main()
